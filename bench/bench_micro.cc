// Microbenchmarks (google-benchmark): the §IV-B3 linear-time claim of
// RD-GBG (runtime vs N), GBABS end-to-end throughput, the classic
// purity-GBG baseline, neighbor search, and classifier training costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/gbabs.h"
#include "core/rd_gbg.h"
#include "data/paper_suite.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "index/knn_index.h"
#include "ml/decision_tree.h"
#include "ml/lgbm.h"
#include "ml/xgb.h"
#include "sampling/purity_gbg.h"

namespace gbx {
namespace {

Dataset BenchBlobs(int n, int classes = 3, int features = 8) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = classes;
  cfg.num_features = features;
  // Keep the point density constant as n grows so scaling benchmarks
  // measure algorithmic complexity, not a geometry that gets denser (and
  // therefore harder) with n.
  cfg.center_spread = 5.0 * std::sqrt(n / 1000.0);
  cfg.cluster_std = 0.8;
  Pcg32 rng(1234);
  return MakeGaussianBlobs(cfg, &rng);
}

void BM_RdGbg(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  RdGbgConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateRdGbg(ds, cfg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RdGbg)->RangeMultiplier(2)->Range(1000, 16000)->Complexity();

void BM_Gbabs(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  GbabsConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunGbabs(ds, cfg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gbabs)->RangeMultiplier(2)->Range(1000, 16000)->Complexity();

void BM_PurityGbg(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  PurityGbgConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneratePurityGbg(ds, cfg));
  }
}
BENCHMARK(BM_PurityGbg)->RangeMultiplier(2)->Range(1000, 8000);

// KnnIndex, the static callers' exact k-nearest primitive: build and
// k = 5 query rows over Gaussian blobs, n × d. Its cutoff
// (ResolveKnnIndexStrategy) puts d <= 2 on the DynamicKdTree and d >= 3
// on the flat scan; the forced arms time the other structure on each
// side of it: the flat scan at d = 2 (FlatKNearestSquared, KnnIndex's
// own flat query), the tree at d = 3 and 8. On three well-separated
// blobs the tree also leads at d = 3; the cutoff follows
// BM_KnnIndexPaperSuite below, the data the callers see.
Dataset KnnBenchPoints(const benchmark::State& state) {
  return BenchBlobs(static_cast<int>(state.range(0)), 3,
                    static_cast<int>(state.range(1)));
}

void BM_KnnIndexBuild(benchmark::State& state) {
  const Dataset ds = KnnBenchPoints(state);
  for (auto _ : state) {
    KnnIndex index(&ds.x());
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_KnnIndexBuild)->ArgsProduct({{1000, 4000, 16000}, {2, 8}});

void BM_KnnIndexQuery(benchmark::State& state) {
  const Dataset ds = KnnBenchPoints(state);
  const KnnIndex index(&ds.x());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.KNearestSquared(ds.row(i), 5));
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(BM_KnnIndexQuery)->ArgsProduct({{1000, 4000, 16000}, {2, 3, 8}});

void BM_KnnIndexForcedFlatQuery(benchmark::State& state) {
  const Dataset ds = KnnBenchPoints(state);
  const SoaMatrix rows = SoaMatrix::FromMatrix(ds.x());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatKNearestSquared(rows, ds.row(i), 5, -1));
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(BM_KnnIndexForcedFlatQuery)
    ->ArgsProduct({{1000, 4000, 16000}, {2}});

void BM_KnnIndexForcedTreeQuery(benchmark::State& state) {
  const Dataset ds = KnnBenchPoints(state);
  const DynamicKdTree tree(&ds.x());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.KNearestSquared(ds.row(i), 5));
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(BM_KnnIndexForcedTreeQuery)
    ->ArgsProduct({{1000, 4000, 16000}, {3, 8}});

// The same two structures on the data KnnIndex's callers see: the 13
// paper-suite stand-ins (MakePaperDataset, capped at 4 000 rows, 70 %
// training split), k = 5 queries at the held-out rows. arg 0 is the
// dataset (0 = S1), arg 1 the structure (0 the flat scan,
// FlatKNearestSquared, which KnnIndex itself calls; 1 DynamicKdTree).
void BM_KnnIndexPaperSuite(benchmark::State& state) {
  const Dataset all =
      MakePaperDataset(static_cast<int>(state.range(0)), 4000, 7);
  Pcg32 rng(8);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.3, &rng);
  const Matrix& x = split.train.x();
  const Matrix& queries = split.test.x();
  const SoaMatrix rows = SoaMatrix::FromMatrix(x);
  const DynamicKdTree tree(&x);
  int i = 0;
  for (auto _ : state) {
    if (state.range(1) == 0) {
      benchmark::DoNotOptimize(
          FlatKNearestSquared(rows, queries.Row(i), 5, -1));
    } else {
      benchmark::DoNotOptimize(tree.KNearestSquared(queries.Row(i), 5));
    }
    i = (i + 1) % queries.rows();
  }
}
BENCHMARK(BM_KnnIndexPaperSuite)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 12, 1), {0, 1}});

void BM_DecisionTreeFit(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DecisionTreeClassifier dt;
    Pcg32 rng(7);
    dt.Fit(ds, &rng);
    benchmark::DoNotOptimize(dt.node_count());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Range(1000, 8000);

void BM_XgBoostFit(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)), 2);
  XgBoostConfig cfg;
  cfg.num_rounds = 10;
  for (auto _ : state) {
    XgBoostClassifier xgb(cfg);
    Pcg32 rng(8);
    xgb.Fit(ds, &rng);
    benchmark::DoNotOptimize(xgb.Predict(ds.row(0)));
  }
}
BENCHMARK(BM_XgBoostFit)->Range(1000, 4000);

void BM_LightGbmFit(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)), 2);
  LightGbmConfig cfg;
  cfg.num_rounds = 10;
  for (auto _ : state) {
    LightGbmClassifier lgbm(cfg);
    Pcg32 rng(9);
    lgbm.Fit(ds, &rng);
    benchmark::DoNotOptimize(lgbm.Predict(ds.row(0)));
  }
}
BENCHMARK(BM_LightGbmFit)->Range(1000, 4000);

}  // namespace
}  // namespace gbx
