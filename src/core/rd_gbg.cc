#include "core/rd_gbg.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/scaler.h"
#include "index/dynamic_kd_tree.h"
#include "index/neighbor_index.h"
#include "simd/simd.h"

namespace gbx {

namespace {

// A flat pass splits across the pool only when it covers at least this
// many row-dimensions (summed over its queries): a pass is tens of
// microseconds, so below it the pool handoff costs more than the second
// worker saves.
constexpr std::int64_t kScanMinParallelUnits = std::int64_t{1} << 18;

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

// Flat list passes, by kind: a round pass covers one round's candidates,
// an epoch pass all of T.
metrics::Counter* ListPassCounter(const char* pass) {
  return metrics::MetricsRegistry::Default().GetCounter(
      "gbx_core_rdgbg_list_passes_total", {{"pass", pass}},
      "RD-GBG flat neighbor-list passes; pass=round covers one round's "
      "candidates, pass=epoch every undivided sample");
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Squared distance to a neighbor candidate. The (dist2, index) pair is a
// strict total order, so any selection schedule — the flat path's
// filtered top-K lists with their lazily sorted tail or the incremental
// KD-tree queries — realizes the same sorted sequence, which is what
// keeps the strategy knob bit-identical.
using DistEntry = SquaredNeighbor;

// Lazily sorted prefix over a DistEntry array. The granulation scans
// neighbors from nearest outward and almost always stops early — at the
// first heterogeneous neighbor or at the r_conf bound — so sorting all n
// entries wastes nearly all of its O(n log n) work. Instead, operator[]
// materializes the globally sorted prefix on demand: each growth step
// selects the next block with nth_element (O(remaining)) and sorts just
// that block, with the block size growing geometrically so a full scan
// still costs O(n log n) total.
class LazySortedPrefix {
 public:
  LazySortedPrefix(std::vector<DistEntry>* entries, std::size_t initial_block)
      : entries_(entries),
        initial_block_(std::max<std::size_t>(initial_block, 1)) {}

  /// The i-th nearest entry; sorts further prefix blocks as needed.
  const DistEntry& operator[](std::size_t i) {
    if (i >= sorted_) Grow(i + 1);
    return (*entries_)[i];
  }

  std::size_t sorted() const { return sorted_; }

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

// T = U − L grouped by class, kept incrementally: one order-statistic
// set per class, a Fenwick tree over the class's samples in index order
// with a 1 for every sample still undivided. Select(cls, k) returns the
// k-th undivided sample of the class in index order — exactly
// `members[k]` of a per-round regroup — in O(log n), and a departure is
// one O(log n) update instead of an O(n) rebuild per round.
class UndividedByClass {
 public:
  UndividedByClass(const std::vector<int>& labels, int num_classes)
      : members_(num_classes),
        tree_(num_classes),
        count_(num_classes),
        pos_(labels.size()) {
    for (int i = 0; i < static_cast<int>(labels.size()); ++i) {
      std::vector<int>& m = members_[labels[i]];
      pos_[i] = static_cast<int>(m.size());
      m.push_back(i);
    }
    for (int c = 0; c < num_classes; ++c) {
      // Every sample starts undivided: node j (1-based) covers
      // lowbit(j) ones.
      count_[c] = static_cast<int>(members_[c].size());
      tree_[c].resize(count_[c] + 1);
      for (int j = 1; j <= count_[c]; ++j) tree_[c][j] = j & -j;
    }
  }

  int count(int cls) const { return count_[cls]; }

  /// Removes undivided sample `i` of class `cls`.
  void Erase(int cls, int i) {
    std::vector<int>& t = tree_[cls];
    for (int j = pos_[i] + 1; j < static_cast<int>(t.size()); j += j & -j) {
      --t[j];
    }
    --count_[cls];
  }

  /// The k-th (0-based) undivided sample of class `cls` in index order.
  int Select(int cls, int k) const {
    GBX_DCHECK(k >= 0 && k < count_[cls]);
    const std::vector<int>& t = tree_[cls];
    const int size = static_cast<int>(t.size()) - 1;
    int step = 1;
    while (step * 2 <= size) step *= 2;
    int pos = 0;  // largest 1-based position whose prefix sum is <= k
    for (; step > 0; step /= 2) {
      if (pos + step <= size && t[pos + step] <= k) {
        pos += step;
        k -= t[pos];
      }
    }
    return members_[cls][pos];
  }

 private:
  std::vector<std::vector<int>> members_;  // class samples, ascending
  std::vector<std::vector<int>> tree_;     // Fenwick trees, 1-based
  std::vector<int> count_;                 // undivided samples per class
  std::vector<int> pos_;                   // sample -> index in members_
};

// Flat strategy: U kept resident as a SoA copy of its rows with a live
// byte per slot, so a neighbor pass is one streaming kernel call instead
// of a gather-pack of scattered rows. Departures are tombstoned (the
// slot's live byte clears) and the copy compacts once half its slots are
// dead. The granulation applies a candidate's departures only when the
// candidate ends, so every pass a candidate makes sees the U it started
// with.
//
// TakeLists gives each sample it is passed the ids of its K nearest live
// samples, indexed by sample id, and a list serves its sample whenever it
// becomes a candidate: U only shrinks, so a list taken over an earlier U
// and filtered by liveness is an exact prefix of the sample's current
// sorted list. The granulation passes either one round's candidates or,
// for an epoch that lasts until the next compaction, all of T.
class ResidentU {
 public:
  ResidentU(const Matrix& x, int list_k)
      : x_(&x),
        rows_(SoaMatrix::FromMatrix(x)),
        slot_sample_(x.rows()),
        sample_slot_(x.rows()),
        live_(x.rows(), 1),
        live_count_(x.rows()),
        dist_(x.rows()),
        list_k_(list_k),
        lists_(static_cast<std::size_t>(x.rows()) * list_k),
        list_counts_(x.rows()) {
    for (int i = 0; i < x.rows(); ++i) slot_sample_[i] = sample_slot_[i] = i;
  }

  int live() const { return live_count_; }

  void Remove(int sample) {
    std::uint8_t& flag = live_[sample_slot_[sample]];
    GBX_DCHECK(flag);
    flag = 0;
    --live_count_;
  }

  /// Compacts the slots once at least half of them are dead; true when it
  /// did, which ends an epoch.
  bool CompactIfSparse() {
    const int slots = rows_.rows();
    if ((slots - live_count_) * 2 < slots) return false;
    int kept = 0;
    for (int s = 0; s < slots; ++s) {
      if (live_[s]) slot_sample_[kept++] = slot_sample_[s];
    }
    slot_sample_.resize(kept);
    // The kernel ranks slots in place of samples, which needs slot order
    // to stay sample order.
    GBX_DCHECK(std::is_sorted(slot_sample_.begin(), slot_sample_.end()));
    for (int s = 0; s < kept; ++s) sample_slot_[slot_sample_[s]] = s;
    live_.assign(kept, 1);
    rows_.GatherRows(*x_, slot_sample_.data(), kept);
    return true;
  }

  /// For every sample t of `samples` (live samples), the ids of the
  /// min(K, live - 1) nearest other live samples in ascending (dist2,
  /// sample) order, read back through List(t). The samples run in chunks
  /// of at most SquaredTopKQueriesPerPass(), one simd::SquaredTopK call
  /// over every slot per chunk, and the chunks split over up to `threads`
  /// workers (a short pass gets smaller chunks so that each worker has
  /// one), each chunk with its own pair scratch. The kernel ranks slots,
  /// and slot order is sample order, so mapping slots to samples keeps
  /// the (dist2, sample) order. Only ids are kept: a view computes an
  /// entry's distance when it reads it.
  void TakeLists(const std::vector<int>& samples, int threads) {
    const int nq = static_cast<int>(samples.size());
    const int k = std::min(list_k_, live_count_ - 1);
    const int workers = PassWorkers(nq, threads);
    const int per_chunk = std::min(simd::SquaredTopKQueriesPerPass(),
                                   (nq + workers - 1) / workers);
    ParallelForRange(
        (nq + per_chunk - 1) / per_chunk, 1, workers,
        [&](int cbegin, int cend) {
          std::vector<const double*> queries(per_chunk);
          std::vector<int> exclude(per_chunk);
          std::vector<std::pair<double, int>> found(
              static_cast<std::size_t>(per_chunk) * k);
          std::vector<int> counts(per_chunk);
          for (int chunk = cbegin; chunk < cend; ++chunk) {
            const int first = chunk * per_chunk;
            const int num = std::min(per_chunk, nq - first);
            for (int g = 0; g < num; ++g) {
              queries[g] = x_->Row(samples[first + g]);
              exclude[g] = sample_slot_[samples[first + g]];
            }
            simd::SquaredTopK(queries.data(), num, rows_, live_.data(),
                              exclude.data(), 0, rows_.rows(), k,
                              found.data(), counts.data());
            for (int g = 0; g < num; ++g) {
              const int t = samples[first + g];
              int* list = lists_.data() + static_cast<std::size_t>(t) * list_k_;
              const std::pair<double, int>* entries =
                  found.data() + static_cast<std::size_t>(g) * k;
              for (int e = 0; e < counts[g]; ++e) {
                list[e] = slot_sample_[entries[e].second];
              }
              list_counts_[t] = counts[g];
            }
          }
        });
  }

  /// Sample t's list from the last pass that covered t, unfiltered.
  const int* List(int t) const {
    return lists_.data() + static_cast<std::size_t>(t) * list_k_;
  }
  int ListSize(int t) const { return list_counts_[t]; }

  double SquaredDistanceTo(const double* q, int sample) const {
    return SquaredDistance(q, x_->Row(sample), x_->cols());
  }

  /// A fresh squared-distance pass from `q` over every slot, then every
  /// live entry but `exclude`'s, unsorted — the input of a candidate's
  /// deep-read fallback.
  void FillAll(const double* q, int exclude, int threads,
               std::vector<DistEntry>* out) {
    const int slots = rows_.rows();
    const int workers = PassWorkers(1, threads);
    ParallelForRange(slots, (slots + workers - 1) / workers, workers,
                     [&](int lo, int hi) {
                       simd::SquaredDistanceBatch(q, rows_, lo, hi,
                                                  dist_.data());
                     });
    const int exclude_slot = sample_slot_[exclude];
    out->clear();
    for (int s = 0; s < slots; ++s) {
      if (live_[s] && s != exclude_slot) {
        out->push_back(DistEntry{dist_[s], slot_sample_[s]});
      }
    }
  }

 private:
  // A pass over the live rows for `queries` queries takes the pool's
  // `threads` workers once it covers kScanMinParallelUnits.
  int PassWorkers(int queries, int threads) const {
    return static_cast<std::int64_t>(live_count_) * rows_.cols() * queries >=
                   kScanMinParallelUnits
               ? threads
               : 1;
  }

  const Matrix* x_;
  SoaMatrix rows_;                 // slot s holds sample slot_sample_[s]
  std::vector<int> slot_sample_;
  std::vector<int> sample_slot_;   // valid for live samples
  std::vector<std::uint8_t> live_;
  int live_count_;
  std::vector<double> dist_;       // per-slot distances of FillAll's pass
  // TakeLists' output: sample t's ids at lists_[t * list_k_ ..), with
  // list_counts_[t] of them.
  int list_k_;
  std::vector<int> lists_;
  std::vector<int> list_counts_;
};

// The sorted neighbor view of a flat candidate. `top` holds the ids of
// the candidate's list that are still in U, in list order; each entry's
// dist2 is computed the first time it is read (bit-identical to the
// kernel's by the simd.h contract), because a candidate rarely reads its
// whole list. The survivors are exactly the first entries of the
// candidate's current sorted list: every sample of today's U that the
// list's pass did not keep ranked behind all of them. A candidate that
// reads past them falls back to a fresh distance pass over today's U and
// a LazySortedPrefix over every live entry.
class ResidentNeighborView {
 public:
  ResidentNeighborView(ResidentU* u, const double* query, int exclude,
                       int threads, std::vector<DistEntry>* top,
                       std::vector<DistEntry>* storage,
                       std::size_t initial_block, double* fallback_ms)
      : u_(u),
        query_(query),
        exclude_(exclude),
        threads_(threads),
        top_(top),
        storage_(storage),
        m_(static_cast<std::size_t>(u->live() - 1)),
        initial_block_(initial_block),
        fallback_ms_(fallback_ms) {}

  /// Eligible neighbors (live samples minus the candidate itself).
  std::size_t size() const { return m_; }

  const DistEntry& operator[](std::size_t i) {
    if (i >= top_->size()) return Tail(i);
    for (; measured_ <= i; ++measured_) {
      DistEntry& e = (*top_)[measured_];
      e.dist2 = u_->SquaredDistanceTo(query_, e.index);
    }
    return (*top_)[i];
  }

 private:
  const DistEntry& Tail(std::size_t i) {
    std::chrono::steady_clock::time_point start;
    const bool timed = fallback_ms_ != nullptr &&
                       (!lazy_.has_value() || i >= lazy_->sorted());
    if (timed) start = std::chrono::steady_clock::now();
    if (!lazy_.has_value()) {
      // The filtered prefix has already been read, so the first block
      // doubles the list length.
      u_->FillAll(query_, exclude_, threads_, storage_);
      lazy_.emplace(storage_, 2 * initial_block_);
    }
    const DistEntry& entry = (*lazy_)[i];
    if (timed) *fallback_ms_ += MsSince(start);
    return entry;
  }

  ResidentU* u_;
  const double* query_;
  int exclude_;
  int threads_;  // for the fallback's distance pass
  std::vector<DistEntry>* top_;
  std::vector<DistEntry>* storage_;
  std::size_t m_;
  std::size_t initial_block_;
  double* fallback_ms_;  // nullptr when metrics are off
  std::size_t measured_ = 0;  // top_[0, measured_) carry their dist2
  std::optional<LazySortedPrefix> lazy_;
};

// The same lazily-extended sorted-neighbor view, served by incremental
// tree queries instead of a flat distance scan: operator[] fetches the
// (i+1)-nearest live neighbors on demand, with the fetch size growing
// geometrically like LazySortedPrefix's blocks. Each fetch is a fresh
// k-NN query, so the tree must not change while a stream is live — the
// granulation defers its tombstone removals to the end of the candidate,
// which also keeps the view a consistent snapshot of the U-set exactly
// like the flat path's resident copy. Because the query returns the
// (dist2, index)-sorted prefix of the same total order the flat scan
// sorts by, the strategies are interchangeable bit-for-bit. Tree is
// DynamicKdTree or BallTree, the two instantiations of one tombstoned
// tree: both serve KNearestSquared in that exact order and differ only
// in the node bound they prune with (boxes vs metric balls).
template <typename Tree>
class TreeNeighborStream {
 public:
  TreeNeighborStream(const Tree* tree, const double* query,
                     int exclude, std::vector<DistEntry>* storage,
                     std::size_t initial_block, double* fetch_ms)
      : tree_(tree),
        query_(query),
        exclude_(exclude),
        storage_(storage),
        m_(static_cast<std::size_t>(tree->size() - 1)),
        initial_block_(std::max<std::size_t>(initial_block, 1)),
        fetch_ms_(fetch_ms) {
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
    std::chrono::steady_clock::time_point start;
    if (fetch_ms_ != nullptr) start = std::chrono::steady_clock::now();
    *storage_ = tree_->KNearestSquared(query_, static_cast<int>(target),
                                       exclude_);
    if (fetch_ms_ != nullptr) *fetch_ms_ += MsSince(start);
    GBX_DCHECK(storage_->size() == target);
  }

  const Tree* tree_;
  const double* query_;
  int exclude_;
  std::vector<DistEntry>* storage_;
  std::size_t m_;
  std::size_t initial_block_;
  double* fetch_ms_;  // nullptr when metrics are off
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
  // plus the accumulated r_conf pass, neighbor search (rdgbg_scan: the
  // flat list passes, or the tree fetches) and the flat deep-read
  // fallback (rdgbg_fallback: fresh distance passes plus the lazy sort;
  // 0 under the trees). Behind metrics::Enabled() because each probe adds
  // two clock reads per candidate — near-zero when armed, literally zero
  // when GBX_METRICS=0.
  const bool metrics_on = metrics::Enabled();
  const auto fit_start = std::chrono::steady_clock::now();
  double rconf_accum_ms = 0.0;
  double scan_accum_ms = 0.0;
  double fallback_accum_ms = 0.0;

  Matrix x = config.scale_features ? MinMaxScaler().FitTransform(dataset.x())
                                   : dataset.x();
  const std::vector<int>& labels = dataset.y();

  std::vector<SampleState> state(n, SampleState::kUndivided);
  UndividedByClass undivided(labels, q);  // T
  std::vector<GranularBall> balls;
  RdGbgResult result;
  Pcg32 rng(config.seed);

  std::vector<DistEntry> entries;
  // Flat strategy: the current candidate's filtered list. A round takes
  // lists for its own candidates unless an epoch's lists for all of T
  // are still in force; an epoch lasts until the next compaction. Each
  // sample is a candidate at most once, so an epoch list is read only if
  // its sample leaves T as a candidate rather than as a ball member or
  // noise. Since the last compaction, `window_candidates` of the
  // `window_departures` samples that left T did so as candidates, and an
  // epoch starts once that is at least half of them.
  std::vector<DistEntry> top;
  bool epoch_lists = false;
  int window_candidates = 0;
  int window_departures = 0;
  int round_passes = 0;  // gbx_core_rdgbg_list_passes_total{pass=...}
  int epoch_passes = 0;
  std::vector<double> chunk_mins;  // per-chunk r_conf gap minima
  // SoA mirror of `balls` streamed by the fused r_conf gap kernel
  // (simd::MinSurfaceGap); every new ball is appended to it.
  SoaMatrix ball_centers_soa(p);
  std::vector<double> ball_radii;

  // Every strategy follows U: each sample that leaves it (noise, ball
  // member) is tombstoned, and the structure rebuilds itself once the
  // tombstones reach half of it. kFlat scans a resident copy of U's
  // rows, kTree prunes with axis-aligned boxes, kBallTree with the
  // triangle inequality (a forced choice; kAuto never picks it).
  const std::size_t initial_block =
      std::max<std::size_t>(static_cast<std::size_t>(rho), 32);
  const IndexStrategy strategy =
      ResolveRdGbgIndexStrategy(config.index_strategy, n, p, threads);
  std::unique_ptr<DynamicKdTree> utree;
  std::unique_ptr<BallTree> ubtree;
  std::unique_ptr<ResidentU> uflat;
  if (strategy == IndexStrategy::kTree) {
    utree = std::make_unique<DynamicKdTree>(&x);
  } else if (strategy == IndexStrategy::kBallTree) {
    ubtree = std::make_unique<BallTree>(&x);
  } else {
    uflat = std::make_unique<ResidentU>(
        x, static_cast<int>(std::min<std::size_t>(initial_block, n)));
  }
  std::vector<int> removed_now;  // U-departures of the current candidate

  // Every state transition goes through here, so T and the candidate's
  // deferred U-departures never drift from `state`.
  const auto set_state = [&](int i, SampleState to) {
    if (state[i] == SampleState::kUndivided) {
      undivided.Erase(labels[i], i);
      ++window_departures;
    }
    state[i] = to;
    if (!InU(to)) removed_now.push_back(i);
  };

  std::vector<int> group_order;
  std::vector<int> candidates;
  std::vector<int> list_samples;
  for (;;) {
    // --- Step 1 per round: T = U - L grouped by class. ---
    group_order.clear();
    for (int c = 0; c < q; ++c) {
      if (undivided.count(c) > 0) group_order.push_back(c);
    }
    if (group_order.empty()) break;  // U ⊆ L: terminate global iteration
    // Larger groups first (|T1| >= |T2| >= ...), class id as tie-break.
    std::stable_sort(group_order.begin(), group_order.end(),
                     [&](int a, int b) {
                       return undivided.count(a) > undivided.count(b);
                     });
    ++result.iterations;

    // One random candidate per class, drawn before any of them runs.
    candidates.clear();
    for (int cls : group_order) {
      const auto size = static_cast<std::uint32_t>(undivided.count(cls));
      candidates.push_back(
          undivided.Select(cls, static_cast<int>(rng.NextBounded(size))));
    }

    // Flat strategy: lists over today's U for this round's candidates,
    // or for all of T when an epoch starts; each candidate later drops
    // the entries that left U since.
    if (uflat != nullptr && !epoch_lists && uflat->live() > 1) {
      std::chrono::steady_clock::time_point scan_start;
      if (metrics_on) scan_start = std::chrono::steady_clock::now();
      epoch_lists = window_departures > 0 &&
                    2 * window_candidates >= window_departures;
      if (epoch_lists) {
        list_samples.clear();
        for (int i = 0; i < n; ++i) {
          if (state[i] == SampleState::kUndivided) list_samples.push_back(i);
        }
        uflat->TakeLists(list_samples, threads);
        ++epoch_passes;
      } else {
        uflat->TakeLists(candidates, threads);
        ++round_passes;
      }
      if (metrics_on) scan_accum_ms += MsSince(scan_start);
    }

    for (const int c : candidates) {
      // A previous candidate in this round may have absorbed or removed c.
      if (state[c] != SampleState::kUndivided) continue;
      const int label = labels[c];
      const double* cx = x.Row(c);
      removed_now.clear();

      // Everything from local-density detection to ball assembly,
      // against a sorted neighbor view — ResidentNeighborView over the
      // flat lists or TreeNeighborStream over incremental tree queries.
      // Both present the same (dist2, index) total order, so the
      // instantiations make identical decisions bit-for-bit. Tombstone
      // removals are deferred (collected in removed_now) so every view
      // serves the candidate-start snapshot of U: a noisy nearest
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
            set_state(c, SampleState::kNoise);
            result.noise_indices.push_back(c);
            return;
          }
          if (h == 1) {
            // The lone heterogeneous nearest neighbor is the noise.
            const int nn = neighbors[0].index;
            set_state(nn, SampleState::kNoise);
            result.noise_indices.push_back(nn);
            scan_begin = 1;
          } else {
            // 1 < h < rho: c cannot be cleanly separated — low density.
            set_state(c, SampleState::kLowDensity);
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
        // doubles is exact whatever the evaluation order, so the chunked
        // parallel scan produces the identical double at any thread
        // count.
        std::chrono::steady_clock::time_point rconf_start;
        if (metrics_on) rconf_start = std::chrono::steady_clock::now();
        double r_conf = std::numeric_limits<double>::infinity();
        const int nballs = static_cast<int>(balls.size());
        if (nballs > 0) {
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
        if (metrics_on) rconf_accum_ms += MsSince(rconf_start);
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
          set_state(c, SampleState::kLowDensity);
          return;
        }

        // --- Assemble the ball (Eq.7): O = every U-sample within r. ---
        GranularBall ball;
        ball.center.assign(cx, cx + p);
        ball.center_index = c;
        ball.radius = std::sqrt(r2);
        ball.label = label;
        ball.members.push_back(c);
        set_state(c, SampleState::kCovered);
        for (std::size_t i = scan_begin; i < neighbors.size(); ++i) {
          if (neighbors[i].dist2 > r2) break;
          const int idx = neighbors[i].index;
          GBX_DCHECK(labels[idx] == label);
          ball.members.push_back(idx);
          set_state(idx, SampleState::kCovered);
        }
        GBX_CHECK_GE(ball.size(), 2);
        ball_centers_soa.AppendRow(ball.center.data());
        ball_radii.push_back(ball.radius);
        balls.push_back(std::move(ball));
      };

      // Tree strategies share one shape: stream neighbors from the tree,
      // then apply the candidate's deferred U-departures as tombstones.
      const auto run_with_tree = [&](auto* tree) {
        if (tree->size() <= 1) {
          set_state(c, SampleState::kLowDensity);  // last sample standing
          return;
        }
        TreeNeighborStream neighbors(tree, cx, /*exclude=*/c, &entries,
                                     initial_block,
                                     metrics_on ? &scan_accum_ms : nullptr);
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

      // Flat strategy: c's list, minus the samples that left U since it
      // was taken; sqrt is deferred until a radius is actually assigned.
      if (uflat->live() <= 1) {
        set_state(c, SampleState::kLowDensity);  // last sample standing
        continue;
      }
      top.clear();
      const int* list = uflat->List(c);
      for (int e = 0; e < uflat->ListSize(c); ++e) {
        if (InU(state[list[e]])) top.push_back(DistEntry{0.0, list[e]});
      }
      ResidentNeighborView neighbors(uflat.get(), cx, c, threads, &top,
                                     &entries, initial_block,
                                     metrics_on ? &fallback_accum_ms : nullptr);
      run_candidate(neighbors);
      ++window_candidates;
      for (int idx : removed_now) uflat->Remove(idx);
      if (uflat->CompactIfSparse()) {
        epoch_lists = false;
        window_candidates = window_departures = 0;
      }
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
    using metrics::CorePhaseHistogram;
    CorePhaseHistogram("rdgbg_fit")->Observe(MsSince(fit_start));
    CorePhaseHistogram("rdgbg_rconf")->Observe(rconf_accum_ms);
    CorePhaseHistogram("rdgbg_scan")->Observe(scan_accum_ms);
    CorePhaseHistogram("rdgbg_fallback")->Observe(fallback_accum_ms);
    if (uflat != nullptr) {
      ListPassCounter("round")->Inc(round_passes);
      ListPassCounter("epoch")->Inc(epoch_passes);
    }
  }
  return result;
}

}  // namespace gbx
