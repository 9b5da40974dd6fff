// Dynamic-index microbenchmark (google-benchmark): the strategy
// crossovers behind the IndexStrategy knob, on the index workloads the
// granulation and GB-kNN hot paths are built from.
//
//   BM_DrainKnn         — RD-GBG's neighbor shape: k-NN queries against a
//                         point set that shrinks as queried points are
//                         removed (strategy:0 flat rescan, strategy:1
//                         DynamicKdTree, strategy:2 metric BallTree, both
//                         trees with tombstones + amortized rebuild).
//                         Flat is O(n·d) per query; a tree pays O(log n)
//                         amortized while its pruning holds, so the gap
//                         widens with n and closes with d — the ball-tree
//                         closes later than the KD-tree.
//   BM_CenterSurfaceKnn — GB-kNN's center shape: KNearestSurface over a
//                         fixed clustered center set (strategy 0/1/2),
//                         isolating the center-scan crossover out to the
//                         dimensionalities where box pruning has died.
//   BM_GbKnnPredict     — end-to-end GB-kNN inference: a fitted model
//                         serving a query batch under each strategy
//                         (strategy:0/1/2 as above, strategy:4 kAuto).
//   BM_GbKnnPredictShapes — the same on a low-intrinsic-dimension d=24
//                         geometry and the d=2 banana set, k=1 and 3.
//   BM_CenterScanPairwise / BM_CenterScanKernel — the surface-score
//                         scan itself: the per-pair EuclideanDistance
//                         loop GB-kNN used through PR 5 vs the batched
//                         SoA kernel (src/simd/) per dispatch level
//                         (simd axis: 0 scalar, 1 neon, 2 avx2,
//                         3 avx512; unsupported levels skip). The
//                         kernel speedup table in README comes from
//                         these rows.
//   BM_CenterTopKKernel — the same scan with GB-kNN's top-k selection
//                         on top (simd::SurfaceTopK, k axis), per
//                         dispatch level; its rows read against
//                         BM_CenterScanKernel's show what selection adds.
//   BM_SquaredTopKKernel — the k-nearest scan behind RD-GBG's candidate
//                         rounds and KnnIndex (simd::SquaredTopK, k = 32)
//                         over the min-max scaled S5, S10 and S13
//                         stand-ins at gbxbench's training row counts,
//                         5% of rows dead, each query excluding its own
//                         row. q queries share each pass; q:1 is the
//                         one-query scan every query paid before, so the
//                         per-query time against it is the gain.
//
// kAuto's thresholds in index/index_strategy.cc are picked from these
// curves. Every strategy produces bit-identical results, so rows differ
// only in wall time. --json=FILE additionally writes the rows as a flat
// JSON array (bench_json.h) — the BENCH_*.json perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "data/paper_suite.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "index/dynamic_kd_tree.h"
#include "ml/gb_knn.h"
#include "simd/simd.h"

namespace gbx {
namespace {

const Matrix& CachedPoints(int n, int d) {
  static std::map<std::pair<int, int>, Matrix> cache;
  const auto key = std::make_pair(n, d);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Pcg32 rng(99 + n + d);
    Matrix m(n, d);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) m.At(i, j) = rng.NextGaussian();
    }
    it = cache.emplace(key, std::move(m)).first;
  }
  return it->second;
}

// One drain step under the flat strategy: scan every live point except
// the query point itself (matching the tree path's `exclude`),
// partial-select the k nearest by (dist2, index) — the same work
// RD-GBG's flat per-candidate pass performs (serially, so the
// strategies compare algorithmically rather than by thread count).
void FlatKnnStep(const Matrix& pts, const std::vector<int>& live,
                 const double* q, int exclude, int k,
                 std::vector<SquaredNeighbor>* scratch) {
  scratch->clear();
  for (int id : live) {
    if (id == exclude) continue;
    scratch->push_back(
        SquaredNeighbor{SquaredDistance(q, pts.Row(id), pts.cols()), id});
  }
  const std::size_t kk = std::min<std::size_t>(k, scratch->size());
  std::nth_element(scratch->begin(), scratch->begin() + kk, scratch->end());
  std::sort(scratch->begin(), scratch->begin() + kk);
  benchmark::DoNotOptimize(scratch->data());
}

template <typename Tree>
void DrainWithTree(const Matrix& pts, int n, int k) {
  Pcg32 rng(7);
  Tree tree(&pts);
  const int kQueries = std::min(2000, n);
  for (int step = 0; step < kQueries; ++step) {
    // Query at a random live point, then remove it — the shrinking
    // U-set access pattern.
    int id;
    do {
      id = static_cast<int>(rng.NextBounded(n));
    } while (!tree.alive(id));
    const auto nns = tree.KNearestSquared(pts.Row(id), k, /*exclude=*/id);
    benchmark::DoNotOptimize(nns.data());
    tree.Remove(id);
  }
}

void BM_DrainKnn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const int strategy = static_cast<int>(state.range(2));
  const int kQueries = std::min(2000, n);  // query+remove steps per iteration
  const int kNeighbors = 16;
  const Matrix& pts = CachedPoints(n, d);

  for (auto _ : state) {
    if (strategy == 1) {
      DrainWithTree<DynamicKdTree>(pts, n, kNeighbors);
    } else if (strategy == 2) {
      DrainWithTree<BallTree>(pts, n, kNeighbors);
    } else {
      Pcg32 rng(7);
      std::vector<int> live(n);
      std::vector<int> pos(n);  // O(1) swap-removal from the live list
      for (int i = 0; i < n; ++i) live[i] = pos[i] = i;
      std::vector<char> alive(n, 1);
      std::vector<SquaredNeighbor> scratch;
      scratch.reserve(n);
      for (int step = 0; step < kQueries; ++step) {
        int id;
        do {
          id = static_cast<int>(rng.NextBounded(n));
        } while (!alive[id]);
        FlatKnnStep(pts, live, pts.Row(id), id, kNeighbors, &scratch);
        alive[id] = 0;
        const int last = live.back();
        live[pos[id]] = last;
        pos[last] = pos[id];
        live.pop_back();
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}

BENCHMARK(BM_DrainKnn)
    ->ArgNames({"n", "d", "strategy"})
    ->ArgsProduct({{2000, 8000, 20000, 50000}, {8, 16}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Granulation-shaped balls for the center-scan workloads: clustered
// centers (balls live where the data lives) with small radii, so the
// index sees the geometry a fitted GB-kNN model carries. Two regimes:
// isotropic Gaussian blobs (every dimension carries independent signal —
// distance concentration at its worst), and rotated
// informative-subspace data (low intrinsic dimensionality at any
// ambient d, EffectiveDimension ≈ 3.5 — the structure real tabular
// data carries, and the regime GB-kNN's d_eff gate detects).
struct BallSet {
  Matrix centers;
  std::vector<double> radii;
};

const BallSet& CachedBalls(int m, int d, bool structured = false) {
  static std::map<std::tuple<int, int, bool>, BallSet> cache;
  const auto key = std::make_tuple(m, d, structured);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Pcg32 rng(321 + m + d);
    Matrix centers(0, 0);
    if (structured) {
      HighDimConfig cfg;
      cfg.num_samples = m;
      cfg.num_features = d;
      cfg.num_informative = 4;
      cfg.num_classes = 4;
      cfg.clusters_per_class = 3;
      cfg.class_sep = 2.0;
      cfg.noise_std = 0.25;
      centers = MakeInformativeHighDim(cfg, &rng).x();
      Pcg32 rot_rng(99 + d);
      RotateFeatures(&centers, &rot_rng);
    } else {
      BlobsConfig cfg;
      cfg.num_samples = m;
      cfg.num_classes = 4;
      cfg.num_features = d;
      cfg.clusters_per_class = 3;
      cfg.center_spread = 4.0;
      cfg.cluster_std = 1.2;
      centers = MakeGaussianBlobs(cfg, &rng).x();
    }
    BallSet set{std::move(centers), {}};
    set.radii.resize(m);
    for (int i = 0; i < m; ++i) set.radii[i] = rng.NextDouble() * 0.3;
    it = cache.emplace(key, std::move(set)).first;
  }
  return it->second;
}

// GB-kNN's center scan in isolation: KNearestSurface (k=3) over a fixed
// clustered center set, per strategy, out to dimensionalities where the
// KD-tree's box pruning has concentrated away. On the isotropic
// geometry the flat scan retakes the lead past d~10 — distance
// concentration is physics — while on the structured (low intrinsic
// dimension) geometry both trees keep multiplying, with the ball-tree's
// metric pruning ahead of the boxes from d>=16.
void CenterSurfaceKnnImpl(benchmark::State& state, bool structured) {
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const int strategy = static_cast<int>(state.range(2));
  const int kQueries = 2000;
  const int kNeighbors = 3;
  const BallSet& balls = CachedBalls(m, d, structured);
  const Matrix& queries = CachedBalls(kQueries, d, structured).centers;

  std::unique_ptr<DynamicKdTree> kd;
  std::unique_ptr<BallTree> ball;
  if (strategy == 1) {
    kd = std::make_unique<DynamicKdTree>(&balls.centers, balls.radii.data());
  } else if (strategy == 2) {
    ball = std::make_unique<BallTree>(&balls.centers, balls.radii.data());
  }

  std::vector<std::pair<double, int>> dists(m);
  for (auto _ : state) {
    for (int qi = 0; qi < kQueries; ++qi) {
      const double* q = queries.Row(qi);
      if (kd != nullptr) {
        const auto top = kd->KNearestSurface(q, kNeighbors);
        benchmark::DoNotOptimize(top.data());
      } else if (ball != nullptr) {
        const auto top = ball->KNearestSurface(q, kNeighbors);
        benchmark::DoNotOptimize(top.data());
      } else {
        // The flat center scan, as GbKnnClassifier::Predict performs it
        // (serially — one query's scan; the pool parallelism lives a
        // level up).
        for (int i = 0; i < m; ++i) {
          const double dist =
              EuclideanDistance(q, balls.centers.Row(i), d);
          const double r = balls.radii[i];
          dists[i] = {dist <= r ? dist - r : dist, i};
        }
        std::partial_sort(dists.begin(), dists.begin() + kNeighbors,
                          dists.end());
        benchmark::DoNotOptimize(dists.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}

void BM_CenterSurfaceKnn(benchmark::State& state) {
  CenterSurfaceKnnImpl(state, /*structured=*/false);
}

void BM_CenterSurfaceKnnStructured(benchmark::State& state) {
  CenterSurfaceKnnImpl(state, /*structured=*/true);
}

BENCHMARK(BM_CenterSurfaceKnn)
    ->ArgNames({"n", "d", "strategy"})
    ->ArgsProduct({{2000, 16000}, {8, 16, 24, 32}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_CenterSurfaceKnnStructured)
    ->ArgNames({"n", "d", "strategy"})
    ->ArgsProduct({{2000, 16000}, {16, 24, 32}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The surface-score scan isolated from selection: score every ball
// against every query, no partial_sort — a pure distance-kernel
// apples-to-apples. Pairwise is the loop shape GbKnnClassifier::Predict
// and the r_conf pass used through PR 5 (per-pair EuclideanDistance
// over row-major centers); Kernel is the batched SoA scan per forced
// dispatch level. Both serial: the pool parallelism lives a level up
// either way.
constexpr int kScanQueries = 200;

void BM_CenterScanPairwise(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const BallSet& balls = CachedBalls(m, d);
  const Matrix& queries = CachedBalls(kScanQueries, d).centers;
  std::vector<double> scores(m);
  for (auto _ : state) {
    for (int qi = 0; qi < kScanQueries; ++qi) {
      const double* q = queries.Row(qi);
      for (int i = 0; i < m; ++i) {
        const double dist = EuclideanDistance(q, balls.centers.Row(i), d);
        const double r = balls.radii[i];
        scores[i] = dist <= r ? dist - r : dist;
      }
      benchmark::DoNotOptimize(scores.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kScanQueries);
}

void BM_CenterScanKernel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const auto level = static_cast<simd::Level>(state.range(2));
  if (!simd::Supported(level)) {
    state.SkipWithError("simd level unsupported on this host");
    return;
  }
  simd::SetLevelForTest(level);
  const BallSet& balls = CachedBalls(m, d);
  const SoaMatrix soa = SoaMatrix::FromMatrix(balls.centers);
  const Matrix& queries = CachedBalls(kScanQueries, d).centers;
  std::vector<double> scores(m);
  for (auto _ : state) {
    for (int qi = 0; qi < kScanQueries; ++qi) {
      simd::SurfaceScores(queries.Row(qi), soa, balls.radii.data(), 0, m,
                          scores.data());
      benchmark::DoNotOptimize(scores.data());
    }
  }
  simd::ReresolveFromEnvForTest();  // restore the process-wide level
  state.SetItemsProcessed(state.iterations() * kScanQueries);
}

void BM_CenterTopKKernel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto level = static_cast<simd::Level>(state.range(3));
  if (!simd::Supported(level)) {
    state.SkipWithError("simd level unsupported on this host");
    return;
  }
  simd::SetLevelForTest(level);
  const BallSet& balls = CachedBalls(m, d);
  const SoaMatrix soa = SoaMatrix::FromMatrix(balls.centers);
  const Matrix& queries = CachedBalls(kScanQueries, d).centers;
  std::vector<std::pair<double, int>> top(k);
  for (auto _ : state) {
    for (int qi = 0; qi < kScanQueries; ++qi) {
      simd::SurfaceTopK(queries.Row(qi), soa, balls.radii.data(), 0, m, k,
                        top.data());
      benchmark::DoNotOptimize(top.data());
    }
  }
  simd::ReresolveFromEnvForTest();  // restore the process-wide level
  state.SetItemsProcessed(state.iterations() * kScanQueries);
}

BENCHMARK(BM_CenterScanPairwise)
    ->ArgNames({"n", "d"})
    ->ArgsProduct({{16000}, {2, 10, 32, 128}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_CenterScanKernel)
    ->ArgNames({"n", "d", "simd"})
    ->ArgsProduct({{16000}, {2, 10, 32, 128}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_CenterTopKKernel)
    ->ArgNames({"n", "d", "k", "simd"})
    ->ArgsProduct({{16000}, {2, 10, 32, 128}, {1, 5}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// S5 / S10 / S13 at the training row counts of gbxbench's banana, magic
// and usps workloads, min-max scaled as RD-GBG scales them.
const Matrix& CachedSuiteRows(int set) {
  static std::map<int, Matrix> cache;
  auto it = cache.find(set);
  if (it == cache.end()) {
    const int rows = set == 5 ? 4000 : (set == 10 ? 8000 : 2000);
    const char* id = set == 5 ? "S5" : (set == 10 ? "S10" : "S13");
    const Dataset ds = MakePaperDataset(id, rows, /*seed=*/13);
    it = cache.emplace(set, MinMaxScaler().FitTransform(ds.x())).first;
  }
  return it->second;
}

void BM_SquaredTopKKernel(benchmark::State& state) {
  const int set = static_cast<int>(state.range(0));
  const int nq = static_cast<int>(state.range(1));
  const auto level = static_cast<simd::Level>(state.range(2));
  if (!simd::Supported(level)) {
    state.SkipWithError("simd level unsupported on this host");
    return;
  }
  simd::SetLevelForTest(level);
  constexpr int kK = 32;
  const Matrix& x = CachedSuiteRows(set);
  const SoaMatrix soa = SoaMatrix::FromMatrix(x);
  const int m = x.rows();
  std::vector<std::uint8_t> live(m);
  Pcg32 rng(2303);
  for (int i = 0; i < m; ++i) live[i] = rng.NextDouble() < 0.05 ? 0 : 1;
  // Queries are live rows spread over the set, each excluding itself.
  std::vector<const double*> queries;
  std::vector<int> exclude;
  for (int i = 0; static_cast<int>(queries.size()) < nq; i += m / nq - 1) {
    if (!live[i]) continue;
    queries.push_back(x.Row(i));
    exclude.push_back(i);
  }
  std::vector<std::pair<double, int>> top(static_cast<std::size_t>(nq) * kK);
  std::vector<int> counts(nq);
  for (auto _ : state) {
    simd::SquaredTopK(queries.data(), nq, soa, live.data(), exclude.data(), 0,
                      m, kK, top.data(), counts.data());
    benchmark::DoNotOptimize(top.data());
  }
  simd::ReresolveFromEnvForTest();  // restore the process-wide level
  state.counters["d"] = x.cols();
  state.counters["rows"] = m;
  state.counters["us_per_query"] = benchmark::Counter(
      static_cast<double>(nq) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() * nq);
}

BENCHMARK(BM_SquaredTopKKernel)
    ->ArgNames({"set", "q", "simd"})
    ->ArgsProduct({{5, 10, 13}, {1, 2, 7, 10}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

const Dataset& CachedBlobs(int n) {
  static std::map<int, Dataset> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    BlobsConfig cfg;
    cfg.num_samples = n;
    cfg.num_classes = 4;
    cfg.num_features = 10;
    cfg.clusters_per_class = 3;
    cfg.center_spread = 4.0;
    cfg.cluster_std = 1.2;
    Pcg32 rng(123);
    it = cache.emplace(n, MakeGaussianBlobs(cfg, &rng)).first;
  }
  return it->second;
}

const GbKnnClassifier& CachedModel(int n, IndexStrategy strategy) {
  static std::map<std::pair<int, int>, GbKnnClassifier> cache;
  const auto key = std::make_pair(n, static_cast<int>(strategy));
  auto it = cache.find(key);
  if (it == cache.end()) {
    RdGbgConfig gbg;
    gbg.seed = 42;
    gbg.index_strategy = strategy;
    GbKnnClassifier model(gbg, /*k=*/3);
    Pcg32 rng(5);
    model.Fit(CachedBlobs(n), &rng);
    it = cache.emplace(key, std::move(model)).first;
  }
  return it->second;
}

void BM_GbKnnPredict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GbKnnClassifier& model =
      CachedModel(n, benchjson::StrategyFromAxis(static_cast<int>(state.range(1))));
  const Dataset& queries = CachedBlobs(2000);
  for (auto _ : state) {
    const std::vector<int> out = model.PredictBatch(queries.x());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["balls"] = model.num_balls();
  state.SetItemsProcessed(state.iterations() * queries.size());
}

// strategy:4 is kAuto. Re-measured under GBX_THREADS ∈ {1, 4, 8},
// the strategy margins (and therefore kAuto's pick) are
// thread-invariant — batch prediction parallelizes over queries for
// every strategy — which is exactly why ResolveCenterIndexStrategy
// keeps its bars independent of the worker count (rationale in
// index_strategy.cc).
BENCHMARK(BM_GbKnnPredict)
    ->ArgNames({"n", "strategy"})
    ->ArgsProduct({{1000, 5000, 20000}, {0, 1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// BM_GbKnnPredict on two more fitted geometries, with k as an axis:
// geometry 1 is rotated informative-subspace data at d=24 (4
// informative dimensions) — the low-intrinsic-dimension regime where
// the ball-tree prunes — and geometry 2 the two-crescent banana set at
// d=2, where the KD-tree's boxes prune best. Queries are 2 000 further
// draws from the same generator.
const Dataset& CachedShapeData(int n, int geometry) {
  static std::map<std::pair<int, int>, Dataset> cache;
  const auto key = std::make_pair(n, geometry);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Pcg32 rng(123);
    Dataset ds;
    if (geometry == 1) {
      HighDimConfig cfg;
      cfg.num_samples = n;
      cfg.num_features = 24;
      cfg.num_informative = 4;
      cfg.num_classes = 4;
      cfg.clusters_per_class = 3;
      cfg.class_sep = 2.0;
      cfg.noise_std = 0.25;
      ds = MakeInformativeHighDim(cfg, &rng);
      Matrix x = ds.x();
      Pcg32 rot_rng(99 + cfg.num_features);
      RotateFeatures(&x, &rot_rng);
      ds = Dataset(std::move(x), ds.y(), ds.num_classes());
    } else {
      BananaConfig cfg;
      cfg.num_samples = n;
      ds = MakeBanana(cfg, &rng);
    }
    it = cache.emplace(key, std::move(ds)).first;
  }
  return it->second;
}

// One granulation per (n, geometry): the ball set is identical under
// every strategy, so each row restores it into a classifier with its
// own k and strategy.
const GbKnnClassifier& CachedShapeFit(int n, int geometry) {
  static std::map<std::pair<int, int>, GbKnnClassifier> cache;
  const auto key = std::make_pair(n, geometry);
  auto it = cache.find(key);
  if (it == cache.end()) {
    RdGbgConfig gbg;
    gbg.seed = 42;
    GbKnnClassifier model(gbg);
    Pcg32 rng(5);
    model.Fit(CachedShapeData(n, geometry), &rng);
    it = cache.emplace(key, std::move(model)).first;
  }
  return it->second;
}

void BM_GbKnnPredictShapes(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int geometry = static_cast<int>(state.range(1));
  const GbKnnClassifier& fit = CachedShapeFit(n, geometry);
  RdGbgConfig gbg = fit.config();
  gbg.index_strategy =
      benchjson::StrategyFromAxis(static_cast<int>(state.range(3)));
  GbKnnClassifier model(gbg, /*k=*/static_cast<int>(state.range(2)));
  model.Restore(fit.balls(), fit.scaler(), fit.num_classes());
  const Dataset& queries = CachedShapeData(2000, geometry);
  for (auto _ : state) {
    const std::vector<int> out = model.PredictBatch(queries.x());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["balls"] = model.num_balls();
  state.SetItemsProcessed(state.iterations() * queries.size());
}

BENCHMARK(BM_GbKnnPredictShapes)
    ->ArgNames({"n", "geometry", "k", "strategy"})
    ->ArgsProduct({{1000, 5000, 20000}, {1, 2}, {1, 3}, {0, 1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace gbx

// Custom main (instead of benchmark::benchmark_main) for the --json
// machine-readable report mode; see bench_json.h.
int main(int argc, char** argv) {
  return gbx::benchjson::BenchMain(argc, argv);
}
