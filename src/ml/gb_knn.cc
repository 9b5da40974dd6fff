#include "ml/gb_knn.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "index/index_strategy.h"
#include "simd/simd.h"

namespace gbx {

namespace {

// Phase timers share the gbx_core_phase_ms family with RD-GBG
// (core/rd_gbg.cc). Call sites gate on metrics::Enabled() and cache the
// histogram pointer in a function-local static, so the armed cost is
// two clock reads and the disarmed cost is one relaxed atomic load.
using metrics::CorePhaseHistogram;

// One Predict splits its flat scan over the pool from this many
// multiply-adds (balls × dims): traced gbxbench runs (BENCH_pr21.json,
// AVX-512, GBX_THREADS=2) put the crossover between two served models.
// magic (7 009 balls × 10 dims = 70k) scans serially in 13 us, where
// the parent's split score fill took 44 us; usps (1 911 × 256 = 489k)
// took 227 us serially in an earlier build of this scan and 115–126 us
// split (three runs, against the parent's 109–133).
constexpr std::int64_t kSplitScanMinWork = std::int64_t{1} << 18;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

GbKnnClassifier::GbKnnClassifier(RdGbgConfig gbg, int k)
    : gbg_config_(gbg), k_(k), effective_seed_(gbg.seed) {
  GBX_CHECK_GE(k, 1);
}

void GbKnnClassifier::Fit(const Dataset& train, Pcg32* rng) {
  GBX_CHECK_GT(train.size(), 0);
  const bool metrics_on = metrics::Enabled();
  const auto fit_start = std::chrono::steady_clock::now();
  RdGbgConfig cfg = gbg_config_;
  if (rng != nullptr) {
    cfg.seed = (static_cast<std::uint64_t>(rng->NextU32()) << 32) |
               rng->NextU32();
  }
  // Provenance for model artifacts; gbg_config_ itself stays the
  // caller's immutable input.
  effective_seed_ = cfg.seed;
  // The balls live in min-max-scaled space; remember the transform so
  // queries are scaled consistently.
  scaler_ = MinMaxScaler();
  scaler_.Fit(train.x());
  cfg.scale_features = true;
  RdGbgResult result = GenerateRdGbg(train, cfg);
  balls_ = std::move(result.balls);
  num_classes_ = train.num_classes();
  RebuildCenterIndex();
  if (metrics_on) {
    static metrics::Histogram* h = CorePhaseHistogram("gbknn_fit");
    h->Observe(MsSince(fit_start));
  }
}

void GbKnnClassifier::Restore(GranularBallSet balls, MinMaxScaler scaler,
                              int num_classes) {
  GBX_CHECK(!balls.empty());
  GBX_CHECK(scaler.fitted());
  GBX_CHECK_EQ(static_cast<int>(scaler.mins().size()),
               balls.scaled_features().cols());
  GBX_CHECK_GE(num_classes, balls.num_classes());
  for (const GranularBall& ball : balls.balls()) {
    GBX_CHECK(ball.label >= 0 && ball.label < num_classes);
  }
  balls_ = std::move(balls);
  scaler_ = std::move(scaler);
  num_classes_ = num_classes;
  RebuildCenterIndex();
}

void GbKnnClassifier::set_index_strategy(IndexStrategy strategy) {
  if (strategy == gbg_config_.index_strategy) return;  // already resolved for this strategy
  gbg_config_.index_strategy = strategy;
  RebuildCenterIndex();
}

IndexStrategy GbKnnClassifier::resolved_index_strategy() const {
  return resolved_;
}

void GbKnnClassifier::RebuildCenterIndex() {
  // RAII: the early returns below (unfitted, tree backend) are builds
  // too, just trivial ones.
  static metrics::Histogram* build_hist =
      CorePhaseHistogram("gbknn_index_build");
  metrics::ScopedTimerMs build_timer(metrics::Enabled() ? build_hist
                                                        : nullptr);
  center_index_.reset();
  flat_centers_.reset();
  resolved_ = IndexStrategy::kFlat;
  if (!fitted()) return;
  const int m = balls_.size();
  const int p = balls_.scaled_features().cols();
  const IndexStrategy backend =
      ResolveCenterIndexStrategy(gbg_config_.index_strategy, m, p);
  if (backend == IndexStrategy::kTree || backend == IndexStrategy::kBallTree) {
    Matrix centers(m, p);
    std::vector<double> radii(m);
    for (int i = 0; i < m; ++i) {
      const GranularBall& ball = balls_.ball(i);
      std::copy(ball.center.begin(), ball.center.end(), centers.Row(i));
      radii[i] = ball.radius;
    }
    center_index_ = std::make_shared<const CenterIndex>(
        std::move(centers), std::move(radii), backend);
    resolved_ = backend;
    return;
  }
  // Flat: pack the centers into the SoA blocked layout the fused SIMD
  // top-k scan streams (src/simd/simd.h).
  auto flat = std::make_shared<FlatCenters>();
  flat->soa = SoaMatrix(p);
  flat->soa.Reserve(m);
  flat->radii.resize(m);
  for (int i = 0; i < m; ++i) {
    const GranularBall& ball = balls_.ball(i);
    flat->soa.AppendRow(ball.center.data());
    flat->radii[i] = ball.radius;
  }
  flat_centers_ = std::move(flat);
}

int GbKnnClassifier::VoteOverNearest(
    const std::vector<std::pair<double, int>>& top) const {
  const int k = static_cast<int>(top.size());
  std::vector<int> votes(num_classes_, 0);
  for (int i = 0; i < k; ++i) ++votes[balls_.ball(top[i].second).label];
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  for (int i = 0; i < k; ++i) {
    const int cls = balls_.ball(top[i].second).label;
    if (votes[cls] == votes[best]) return cls;
  }
  return best;
}

std::vector<std::pair<double, int>> GbKnnClassifier::NearestBalls(
    const double* x, int k) const {
  GBX_CHECK_MSG(fitted(),
                "GB-kNN: Predict called before Fit/Restore (empty ball set)");
  k = std::min(k, balls_.size());
  if (k <= 0) return {};
  std::vector<double> q(balls_.scaled_features().cols());
  scaler_.TransformRow(x, q.data());
  std::vector<std::pair<double, int>> top(k);
  if (center_index_ != nullptr) {
    // KNearestSurface ranks balls by the flat scan's exact (score,
    // index) order — score = dist - r inside, dist outside, computed
    // with the identical arithmetic — so its top-k IS the flat scan's
    // top-k, bit for bit, whichever tree backend is behind it.
    const std::vector<Neighbor> nn =
        center_index_->KNearestSurface(q.data(), k);
    GBX_DCHECK(static_cast<int>(nn.size()) == k);
    for (int i = 0; i < k; ++i) top[i] = {nn[i].distance, nn[i].index};
    return top;
  }
  // Flat: SurfaceTopK over the SoA centers. Small models scan serially
  // — a pool handoff costs more than the scan. Large ones split the
  // rows into block-aligned chunks of ~ParallelGrain work, claimed one
  // at a time by the caller and any worker that wakes in time, and
  // merge the chunks' top-k lists. Either way the result is the exact
  // (score, index) top-k. Under PredictBatch the outer per-query loop
  // owns the workers and the chunks run inline (nested parallel
  // regions serialize).
  GBX_CHECK(flat_centers_ != nullptr);
  const FlatCenters& flat = *flat_centers_;
  const int m = flat.soa.rows();
  const int p = flat.soa.cols();
  const int threads = ResolveNumThreads(gbg_config_.num_threads);
  if (threads <= 1 ||
      static_cast<std::int64_t>(m) * p < kSplitScanMinWork) {
    [[maybe_unused]] const int got = simd::SurfaceTopK(
        q.data(), flat.soa, flat.radii.data(), 0, m, k, top.data());
    GBX_DCHECK(got == k);
    return top;
  }
  const int grain =
      (ParallelGrain(p) + kSoaBlock - 1) / kSoaBlock * kSoaBlock;
  const int chunks = (m + grain - 1) / grain;
  std::vector<std::pair<double, int>> merged(
      static_cast<std::size_t>(chunks) * k);
  std::vector<int> got(chunks);
  ParallelFor(chunks, threads, [&](int c) {
    const int begin = c * grain;
    got[c] = simd::SurfaceTopK(q.data(), flat.soa, flat.radii.data(), begin,
                               std::min(m, begin + grain), k,
                               merged.data() + static_cast<std::size_t>(c) * k);
  });
  // Each chunk's list is its exact top-min(k, rows); the k best of
  // their union are the k best overall.
  auto tail = merged.begin();
  for (int c = 0; c < chunks; ++c) {
    tail = std::copy_n(merged.begin() + static_cast<std::ptrdiff_t>(c) * k,
                       got[c], tail);
  }
  std::partial_sort(merged.begin(), merged.begin() + k, tail);
  std::copy_n(merged.begin(), k, top.begin());
  return top;
}

int GbKnnClassifier::Predict(const double* x) const {
  // Ball score: a query inside a ball (pure, non-overlapping region) is
  // decided by it — score = dist - r < 0, unique by the non-overlap
  // invariant. Outside every ball, the nearest *center* wins. (Plain
  // dist - r for far queries lets large-radius balls dominate under
  // high-dimensional distance concentration.)
  return VoteOverNearest(NearestBalls(x, k_));
}

std::vector<int> GbKnnClassifier::PredictBatch(const Matrix& x) const {
  static metrics::Histogram* predict_hist =
      CorePhaseHistogram("gbknn_predict_batch");
  metrics::ScopedTimerMs predict_timer(metrics::Enabled() ? predict_hist
                                                          : nullptr);
  std::vector<int> out(x.rows());
  ParallelFor(x.rows(), gbg_config_.num_threads,
              [&](int i) { out[i] = Predict(x.Row(i)); });
  return out;
}

}  // namespace gbx
