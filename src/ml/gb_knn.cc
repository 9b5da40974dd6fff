#include "ml/gb_knn.h"

#include <algorithm>
#include <chrono>
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

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Applies the training min-max transform to one raw query.
std::vector<double> ScaleQuery(const MinMaxScaler& scaler, const double* x,
                               int p) {
  Matrix tmp(1, p);
  for (int j = 0; j < p; ++j) tmp.At(0, j) = x[j];
  const Matrix scaled = scaler.Transform(tmp);
  std::vector<double> q(p);
  for (int j = 0; j < p; ++j) q[j] = scaled.At(0, j);
  return q;
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
  // RAII: the early returns below (unfitted, flat backend) are builds
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
  const auto materialize = [&](Matrix* centers, std::vector<double>* radii) {
    *centers = Matrix(m, p);
    radii->resize(m);
    for (int i = 0; i < m; ++i) {
      const GranularBall& ball = balls_.ball(i);
      for (int j = 0; j < p; ++j) centers->At(i, j) = ball.center[j];
      (*radii)[i] = ball.radius;
    }
  };
  // Resolve before materializing: only kAuto's EffectiveDimension-gated
  // ball-tree tier inspects the centers, so the common flat path skips
  // the O(m·p) copy entirely.
  Matrix centers;
  std::vector<double> radii;
  IndexStrategy backend;
  if (gbg_config_.index_strategy == IndexStrategy::kAuto &&
      CenterResolutionWantsCenters(m, p)) {
    materialize(&centers, &radii);
    backend = ResolveCenterIndexStrategy(gbg_config_.index_strategy, m, p,
                                         &centers);
  } else {
    backend = ResolveCenterIndexStrategy(gbg_config_.index_strategy, m, p);
    if (backend == IndexStrategy::kTree ||
        backend == IndexStrategy::kBallTree) {
      materialize(&centers, &radii);
    }
  }
  if (backend == IndexStrategy::kTree || backend == IndexStrategy::kBallTree) {
    center_index_ = std::make_shared<const CenterIndex>(
        std::move(centers), std::move(radii), backend);
    resolved_ = backend;
    return;
  }
  // Flat: pack the centers into the SoA blocked layout the SIMD
  // surface-score kernel streams (src/simd/simd.h).
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
    const std::vector<std::pair<double, int>>& dists, int k) const {
  std::vector<int> votes(num_classes_, 0);
  for (int i = 0; i < k; ++i) ++votes[balls_.ball(dists[i].second).label];
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  for (int i = 0; i < k; ++i) {
    const int cls = balls_.ball(dists[i].second).label;
    if (votes[cls] == votes[best]) return cls;
  }
  return best;
}

std::vector<std::pair<double, int>> GbKnnClassifier::ScoredTopK(
    const std::vector<double>& q, int k) const {
  const std::shared_ptr<const CenterIndex> index = center_index_;
  if (index != nullptr) {
    // KNearestSurface ranks balls by the flat scan's exact (score,
    // index) order — score = dist - r inside, dist outside, computed
    // with the identical arithmetic — so its top-k IS the flat
    // partial_sort's top-k, bit for bit, whichever tree backend is
    // behind it.
    const std::vector<Neighbor> top = index->KNearestSurface(q.data(), k);
    GBX_DCHECK(static_cast<int>(top.size()) == k);
    std::vector<std::pair<double, int>> dists;
    dists.reserve(top.size());
    for (const Neighbor& nb : top) dists.emplace_back(nb.distance, nb.index);
    return dists;
  }

  // Flat scan through the SIMD surface-score kernel. The score fill
  // writes disjoint slots, so it parallelizes over the pool without
  // changing the values (the kernel is bit-exact on every dispatch
  // level); the partial_sort stays serial and deterministic. Under
  // PredictBatch the outer per-query loop already owns the workers and
  // this inner loop runs serially (nested parallel regions serialize) —
  // the fan-out only matters for single large-model Predict calls (the
  // latency-bound serving path).
  const std::shared_ptr<const FlatCenters> flat = flat_centers_;
  GBX_CHECK(flat != nullptr);
  const int m = flat->soa.rows();
  const int p = flat->soa.cols();
  std::vector<double> scores(m);
  std::vector<std::pair<double, int>> dists(m);
  ParallelForRange(
      m, ParallelGrain(p),
      ParallelThreads(m, p, ResolveNumThreads(gbg_config_.num_threads)),
      [&](int begin, int end) {
        simd::SurfaceScores(q.data(), flat->soa, flat->radii.data(), begin,
                            end, scores.data());
        for (int i = begin; i < end; ++i) dists[i] = {scores[i], i};
      });
  std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
  dists.resize(k);
  return dists;
}

int GbKnnClassifier::Predict(const double* x) const {
  GBX_CHECK_MSG(fitted(),
                "GB-kNN: Predict called before Fit/Restore (empty ball set)");
  const int p = balls_.scaled_features().cols();
  // Ball score: a query inside a ball (pure, non-overlapping region) is
  // decided by it — score = dist - r < 0, unique by the non-overlap
  // invariant. Outside every ball, the nearest *center* wins. (Plain
  // dist - r for far queries lets large-radius balls dominate under
  // high-dimensional distance concentration.)
  const int k = std::min(k_, balls_.size());
  return VoteOverNearest(ScoredTopK(ScaleQuery(scaler_, x, p), k), k);
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
