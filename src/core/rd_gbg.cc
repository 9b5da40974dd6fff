#include "core/rd_gbg.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/scaler.h"
#include "index/ball_surface_index.h"
#include "index/ball_tree.h"
#include "index/dynamic_kd_tree.h"
#include "simd/simd.h"

namespace gbx {

namespace {

// Tile size of the flat candidate fill's gather-pack: scattered U-rows
// are packed into a thread-local SoA scratch this many at a time, so
// the batched distance kernel streams L1-resident blocks. 256 rows ×
// typical dims keeps the scratch well under 32 KiB.
constexpr int kCandidateTile = 256;

// Lifecycle of a sample during granulation.
enum class SampleState : std::uint8_t {
  kUndivided,   // in U, potential center (in T)
  kLowDensity,  // in U and in L: not a center, may still be absorbed
  kNoise,       // eliminated as class noise
  kCovered,     // member of a generated ball
};

bool InU(SampleState s) {
  return s == SampleState::kUndivided || s == SampleState::kLowDensity;
}

// Squared distance to a neighbor candidate. The (dist2, index) pair is a
// strict total order, so any selection schedule — the lazily sorted flat
// scan or the incremental KD-tree queries — realizes the same sorted
// sequence, which is what keeps the strategy knob bit-identical.
using DistEntry = SquaredNeighbor;

// Lazily sorted prefix over a DistEntry array. The granulation scans
// neighbors from nearest outward and almost always stops early — at the
// first heterogeneous neighbor or at the r_conf bound — so sorting all n
// entries (the seed implementation's std::sort) wastes nearly all of its
// O(n log n) work. Instead, operator[] materializes the globally sorted
// prefix on demand: each growth step selects the next block with
// nth_element (O(remaining)) and sorts just that block, with the block
// size growing geometrically so a full scan still costs O(n log n) total.
class LazySortedPrefix {
 public:
  LazySortedPrefix(std::vector<DistEntry>* entries, std::size_t initial_block)
      : entries_(entries),
        initial_block_(std::max<std::size_t>(initial_block, 1)) {}

  std::size_t size() const { return entries_->size(); }

  /// The i-th nearest entry; sorts further prefix blocks as needed.
  const DistEntry& operator[](std::size_t i) {
    if (i >= sorted_) Grow(i + 1);
    return (*entries_)[i];
  }

 private:
  void Grow(std::size_t need) {
    std::vector<DistEntry>& e = *entries_;
    std::size_t target = std::max({need, sorted_ * 2, initial_block_});
    target = std::min(target, e.size());
    if (target < e.size()) {
      std::nth_element(e.begin() + sorted_, e.begin() + target, e.end());
    }
    std::sort(e.begin() + sorted_, e.begin() + target);
    sorted_ = target;
  }

  std::vector<DistEntry>* entries_;
  std::size_t initial_block_;
  std::size_t sorted_ = 0;  // [0, sorted_) is the globally sorted prefix
};

// The same lazily-extended sorted-neighbor view, served by incremental
// tree queries instead of a flat distance fill: operator[] fetches the
// (i+1)-nearest live neighbors on demand, with the fetch size growing
// geometrically like LazySortedPrefix's blocks. Each fetch is a fresh
// k-NN query, so the tree must not change while a stream is live — the
// granulation defers its tombstone removals to the end of the candidate,
// which also keeps the view a consistent snapshot of the U-set exactly
// like the flat path's entries buffer. Because the query returns the
// (dist2, index)-sorted prefix of the same total order the flat scan
// sorts by, the strategies are interchangeable bit-for-bit. Tree is
// DynamicKdTree or BallTree — both serve KNearestSquared in that exact
// order, differing only in pruning geometry (boxes vs metric balls).
template <typename Tree>
class TreeNeighborStream {
 public:
  TreeNeighborStream(const Tree* tree, const double* query,
                     int exclude, std::vector<DistEntry>* storage,
                     std::size_t initial_block)
      : tree_(tree),
        query_(query),
        exclude_(exclude),
        storage_(storage),
        m_(static_cast<std::size_t>(tree->size() - 1)),
        initial_block_(std::max<std::size_t>(initial_block, 1)) {
    storage_->clear();
  }

  /// Eligible neighbors (live points minus the query point itself).
  std::size_t size() const { return m_; }

  const DistEntry& operator[](std::size_t i) {
    if (i >= storage_->size()) Grow(i + 1);
    return (*storage_)[i];
  }

 private:
  void Grow(std::size_t need) {
    // Each growth step is a fresh k-NN query, so the factor is steeper
    // than LazySortedPrefix's (×4, not ×2), and once the target is a
    // sizeable fraction of the live set the fetch jumps straight to all
    // of it — a deep consumer (a candidate whose consistent region is a
    // whole cluster) then pays one full traversal instead of a tail of
    // near-full ones.
    std::size_t target =
        std::max({need, storage_->size() * 4, initial_block_});
    if (target >= m_ / 2) target = m_;
    target = std::min(target, m_);
    *storage_ = tree_->KNearestSquared(query_, static_cast<int>(target),
                                       exclude_);
    GBX_DCHECK(storage_->size() == target);
  }

  const Tree* tree_;
  const double* query_;
  int exclude_;
  std::vector<DistEntry>* storage_;
  std::size_t m_;
  std::size_t initial_block_;
};

}  // namespace

RdGbgResult GenerateRdGbg(const Dataset& dataset, const RdGbgConfig& config) {
  GBX_CHECK_GT(dataset.size(), 0);
  GBX_CHECK_GE(config.density_tolerance, 2);
  const int n = dataset.size();
  const int p = dataset.num_features();
  const int q = dataset.num_classes();
  const int rho = config.density_tolerance;
  const int threads = ResolveNumThreads(config.num_threads);
  const int grain = ParallelGrain(p);

  // Phase timers (gbx_core_phase_ms{phase=...}): total granulation time
  // plus the accumulated r_conf pass. Behind metrics::Enabled() because
  // the r_conf probe adds two clock reads per candidate — near-zero
  // when armed, literally zero when GBX_METRICS=0.
  const bool metrics_on = metrics::Enabled();
  const auto fit_start = std::chrono::steady_clock::now();
  double rconf_accum_ms = 0.0;

  Matrix x = config.scale_features ? MinMaxScaler().FitTransform(dataset.x())
                                   : dataset.x();
  const std::vector<int>& labels = dataset.y();

  std::vector<SampleState> state(n, SampleState::kUndivided);
  std::vector<GranularBall> balls;
  RdGbgResult result;
  Pcg32 rng(config.seed);

  std::vector<int> active;  // samples still in U, rebuilt per candidate
  active.reserve(n);
  std::vector<DistEntry> entries;
  std::vector<double> chunk_mins;  // per-chunk r_conf gap minima
  // SoA mirror of `balls` streamed by the fused r_conf gap kernel
  // (simd::MinSurfaceGap), maintained only while the flat scan is live
  // — the BallSurfaceIndex takes over past surface_threshold and the
  // mirror stops growing.
  SoaMatrix ball_centers_soa(p);
  std::vector<double> ball_radii;

  // Tree strategy: instead of re-scanning the whole undivided set per
  // candidate, a tree follows U — every sample that leaves U (noise,
  // ball member) is tombstoned, and the tree rebuilds itself once the
  // tombstones outnumber the survivors. kTree prunes with axis-aligned
  // boxes, kBallTree with the triangle inequality (better at moderate
  // dimensionality).
  const IndexStrategy strategy =
      ResolveRdGbgIndexStrategy(config.index_strategy, n, p, threads, &x);
  std::unique_ptr<DynamicKdTree> utree;
  std::unique_ptr<BallTree> ubtree;
  if (strategy == IndexStrategy::kTree) {
    utree = std::make_unique<DynamicKdTree>(&x);
  } else if (strategy == IndexStrategy::kBallTree) {
    ubtree = std::make_unique<BallTree>(&x);
  }
  // The r_conf pass switches from the flat per-ball gap scan to the
  // insert-capable BallSurfaceIndex once this many balls exist
  // (kSurfaceIndexNever = stay flat). Both compute the identical
  // min-gap double, so the switch is invisible in the output.
  const int surface_threshold =
      ResolveRdGbgSurfaceThreshold(config.index_strategy, threads);
  std::unique_ptr<BallSurfaceIndex> surface;
  std::vector<int> removed_now;  // U-departures of the current candidate
  const std::size_t initial_block =
      std::max<std::size_t>(static_cast<std::size_t>(rho), 32);

  for (;;) {
    // --- Step 1 per round: build T = U - L grouped by class. ---
    std::vector<std::vector<int>> groups(q);
    for (int i = 0; i < n; ++i) {
      if (state[i] == SampleState::kUndivided) groups[labels[i]].push_back(i);
    }
    std::vector<int> group_order;
    for (int c = 0; c < q; ++c) {
      if (!groups[c].empty()) group_order.push_back(c);
    }
    if (group_order.empty()) break;  // U ⊆ L: terminate global iteration
    // Larger groups first (|T1| >= |T2| >= ...), class id as tie-break.
    std::stable_sort(group_order.begin(), group_order.end(),
                     [&](int a, int b) {
                       return groups[a].size() > groups[b].size();
                     });
    ++result.iterations;

    // One random candidate per class.
    std::vector<int> candidates;
    candidates.reserve(group_order.size());
    for (int cls : group_order) {
      const auto& members = groups[cls];
      candidates.push_back(
          members[rng.NextBounded(static_cast<std::uint32_t>(members.size()))]);
    }

    for (int c : candidates) {
      // A previous candidate in this round may have absorbed or removed c.
      if (state[c] != SampleState::kUndivided) continue;
      const int label = labels[c];
      const double* cx = x.Row(c);
      removed_now.clear();

      // Everything from local-density detection to ball assembly,
      // against a sorted neighbor view — LazySortedPrefix over the flat
      // distance fill or TreeNeighborStream over incremental KD-tree
      // queries. Both present the same (dist2, index) total order, so
      // the two instantiations make identical decisions bit-for-bit.
      // Tree tombstone removals are deferred (collected in removed_now)
      // so the stream keeps serving the candidate-start snapshot of U,
      // exactly like the flat path's entries buffer: a noisy nearest
      // neighbor removed mid-candidate still occupies position 0, and
      // scan_begin skips it.
      auto run_candidate = [&](auto& neighbors) {
        const int m = static_cast<int>(neighbors.size());

        // --- Local-density center detection (§IV-B1). ---
        std::size_t scan_begin = 0;  // skip a removed noisy nearest neighbor
        if (labels[neighbors[0].index] != label) {
          const int rho_eff = std::min(rho, m);
          int h = 0;
          for (int i = 0; i < rho_eff; ++i) {
            if (labels[neighbors[i].index] != label) ++h;
          }
          if (h == rho_eff) {
            // Surrounded by heterogeneous samples: c is class noise.
            state[c] = SampleState::kNoise;
            removed_now.push_back(c);
            result.noise_indices.push_back(c);
            return;
          }
          if (h == 1) {
            // The lone heterogeneous nearest neighbor is the noise.
            const int nn = neighbors[0].index;
            state[nn] = SampleState::kNoise;
            removed_now.push_back(nn);
            result.noise_indices.push_back(nn);
            scan_begin = 1;
          } else {
            // 1 < h < rho: c cannot be cleanly separated — low density.
            state[c] = SampleState::kLowDensity;
            return;
          }
        }

        // --- Radius determination (§IV-B2). ---
        // Locally consistent radius CR(c): farthest of the leading
        // homogeneous neighbors strictly closer than the first
        // heterogeneous one (Eq.3) — a homogeneous neighbor tied with it
        // cannot bound a ball without admitting it. below2 trails cr2
        // as the largest strictly smaller homogeneous distance. If no
        // heterogeneous sample remains in U, the whole neighbor list is
        // consistent.
        double cr2 = 0.0;
        double below2 = 0.0;
        for (std::size_t i = scan_begin; i < neighbors.size(); ++i) {
          const double d2 = neighbors[i].dist2;
          if (labels[neighbors[i].index] != label) {
            if (d2 == cr2) cr2 = below2;
            break;
          }
          if (d2 > cr2) below2 = cr2;
          cr2 = d2;
        }

        // Conflict radius r_conf(c): gap to the nearest existing ball
        // (Eq.4) — min_i(dist(c, center_i) − radius_i). min() over
        // doubles is exact whatever the evaluation order, so the three
        // schedules below — the sublinear BallSurfaceIndex query and
        // the chunked parallel flat scan at any thread count — all
        // produce the identical double.
        std::chrono::steady_clock::time_point rconf_start;
        if (metrics_on) rconf_start = std::chrono::steady_clock::now();
        double r_conf = std::numeric_limits<double>::infinity();
        const int nballs = static_cast<int>(balls.size());
        if (surface != nullptr) {
          // The index mirrors `balls` exactly (every push below inserts)
          // and evaluates the same EuclideanDistance − radius expression
          // at its leaves.
          r_conf = surface->MinSurfaceGap(cx);
        } else if (nballs > 0) {
          // Deterministic parallel min-reduction: each chunk owns a
          // disjoint ball range and writes its own min; the chunk mins
          // are folded in chunk order. The chunk layout depends only on
          // the ball count — never on the thread count — and the serial
          // tail fold is O(B/chunk) instead of the old O(B) gap-buffer
          // fold.
          const int nchunks = (nballs + grain - 1) / grain;
          chunk_mins.resize(nchunks);
          double* chunk_min = chunk_mins.data();
          GBX_DCHECK(ball_centers_soa.rows() == nballs);
          ParallelForRange(
              nchunks, 1, ParallelThreads(nballs, p, threads),
              [&](int cbegin, int cend) {
                for (int ci = cbegin; ci < cend; ++ci) {
                  const int lo = ci * grain;
                  const int hi = std::min(nballs, lo + grain);
                  // Fused gap kernel over the SoA mirror — bit-identical
                  // to folding EuclideanDistance − radius in row order
                  // (simd.h contract), on every dispatch level.
                  chunk_min[ci] = simd::MinSurfaceGap(
                      cx, ball_centers_soa, ball_radii.data(), lo, hi);
                }
              });
          for (int ci = 0; ci < nchunks; ++ci) {
            r_conf = std::min(r_conf, chunk_min[ci]);
          }
        }
        r_conf = std::max(r_conf, 0.0);
        if (metrics_on) {
          rconf_accum_ms += std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - rconf_start)
                                .count();
        }
        const double r_conf2 = r_conf * r_conf;

        double r2 = cr2;
        if (cr2 > r_conf2) {
          // Restricted maximum consistent radius r_max(c) (Eq.6): the
          // farthest neighbor not crossing into a previous ball. Neighbors
          // within r_conf < CR are automatically homogeneous.
          r2 = 0.0;
          for (std::size_t i = scan_begin; i < neighbors.size(); ++i) {
            if (neighbors[i].dist2 > r_conf2) break;
            r2 = neighbors[i].dist2;
          }
        }

        if (r2 <= 0.0) {
          // Center sits on the edge of U; leave it for later absorption.
          state[c] = SampleState::kLowDensity;
          return;
        }

        // --- Assemble the ball (Eq.7): O = every U-sample within r. ---
        GranularBall ball;
        ball.center.assign(cx, cx + p);
        ball.center_index = c;
        ball.radius = std::sqrt(r2);
        ball.label = label;
        ball.members.push_back(c);
        state[c] = SampleState::kCovered;
        removed_now.push_back(c);
        for (std::size_t i = scan_begin; i < neighbors.size(); ++i) {
          if (neighbors[i].dist2 > r2) break;
          const int idx = neighbors[i].index;
          GBX_DCHECK(labels[idx] == label);
          ball.members.push_back(idx);
          state[idx] = SampleState::kCovered;
          removed_now.push_back(idx);
        }
        GBX_CHECK_GE(ball.size(), 2);
        balls.push_back(std::move(ball));
        // Keep the surface index an exact mirror of `balls`: insert the
        // new ball, or stand the index up once the ball count crosses
        // the strategy threshold (backfilling everything generated so
        // far).
        if (surface != nullptr) {
          const GranularBall& added = balls.back();
          surface->Insert(added.center.data(), added.radius);
        } else if (static_cast<int>(balls.size()) >= surface_threshold) {
          surface = std::make_unique<BallSurfaceIndex>(p);
          for (const GranularBall& gb : balls) {
            surface->Insert(gb.center.data(), gb.radius);
          }
        } else {
          // Flat r_conf stays live: grow its SoA mirror in lockstep.
          const GranularBall& added = balls.back();
          ball_centers_soa.AppendRow(added.center.data());
          ball_radii.push_back(added.radius);
        }
      };

      // Tree strategies share one shape: stream neighbors from the tree,
      // then apply the candidate's deferred U-departures as tombstones.
      const auto run_with_tree = [&](auto* tree) {
        if (tree->size() <= 1) {
          state[c] = SampleState::kLowDensity;  // last sample standing
          return;
        }
        TreeNeighborStream neighbors(tree, cx, /*exclude=*/c, &entries,
                                     initial_block);
        run_candidate(neighbors);
        for (int idx : removed_now) tree->Remove(idx);
      };
      if (utree != nullptr) {
        run_with_tree(utree.get());
        continue;
      }
      if (ubtree != nullptr) {
        run_with_tree(ubtree.get());
        continue;
      }

      // Flat strategy: squared distances from c to every other sample
      // still in U. The scan parallelizes over disjoint slots of
      // `entries`, so its content does not depend on the thread count;
      // sqrt is deferred until a radius is actually assigned.
      active.clear();
      for (int i = 0; i < n; ++i) {
        if (i != c && InU(state[i])) active.push_back(i);
      }
      const int m = static_cast<int>(active.size());
      if (m == 0) {
        state[c] = SampleState::kLowDensity;  // last sample standing
        continue;
      }
      entries.resize(m);
      {
        const int* act = active.data();
        DistEntry* out = entries.data();
        ParallelForRange(
            m, grain, ParallelThreads(m, p, threads),
            [&](int begin, int end) {
              // Gather-pack each tile of scattered U-rows into a
              // thread-local SoA scratch, then one batched kernel call
              // fills the tile — per-row arithmetic identical to
              // SquaredDistance (simd.h contract). thread_local: pool
              // workers are long-lived, so the scratch amortizes across
              // candidates.
              thread_local SoaMatrix tile;
              thread_local std::vector<double> d2;
              for (int t = begin; t < end; t += kCandidateTile) {
                const int cnt = std::min(end - t, kCandidateTile);
                tile.GatherRows(x, act + t, cnt);
                d2.resize(cnt);
                simd::SquaredDistanceBatch(cx, tile, 0, cnt, d2.data());
                for (int j = 0; j < cnt; ++j) {
                  out[t + j] = DistEntry{d2[j], act[t + j]};
                }
              }
            });
      }
      LazySortedPrefix neighbors(&entries, initial_block);
      run_candidate(neighbors);
    }
  }

  // --- Orphan GBs: every remaining U-sample becomes a radius-0 ball. ---
  for (int i = 0; i < n; ++i) {
    if (!InU(state[i])) continue;
    GranularBall ball;
    const double* xi = x.Row(i);
    ball.center.assign(xi, xi + p);
    ball.center_index = i;
    ball.radius = 0.0;
    ball.label = labels[i];
    ball.members.push_back(i);
    balls.push_back(std::move(ball));
    result.orphan_indices.push_back(i);
  }

  std::sort(result.noise_indices.begin(), result.noise_indices.end());
  std::sort(result.orphan_indices.begin(), result.orphan_indices.end());
  result.balls = GranularBallSet(std::move(balls), std::move(x), q);
  if (metrics_on) {
    auto& reg = metrics::MetricsRegistry::Default();
    static const std::string help =
        "Core algorithm phase durations (ms); phases: rdgbg_fit, "
        "rdgbg_rconf, gbknn_fit, gbknn_index_build, gbknn_predict_batch";
    reg.GetHistogram("gbx_core_phase_ms", {{"phase", "rdgbg_fit"}}, help)
        ->Observe(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - fit_start)
                      .count());
    reg.GetHistogram("gbx_core_phase_ms", {{"phase", "rdgbg_rconf"}}, help)
        ->Observe(rconf_accum_ms);
  }
  return result;
}

}  // namespace gbx
