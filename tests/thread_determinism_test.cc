// Thread-count invariance: every parallelized algorithm must produce
// bit-identical output for any num_threads. Parallel loops only write to
// disjoint per-index slots and all reductions keep their sequential
// order, so 1 thread, 2 threads, and hardware concurrency must agree
// exactly — not approximately.
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/dpc.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/gbabs.h"
#include "core/rd_gbg.h"
#include "data/synthetic.h"
#include "ml/gb_knn.h"
#include "sampling/kmeans.h"
#include "serve/registry.h"
#include "serve_test_util.h"
#include "thread_counts.h"

namespace gbx {
namespace {

Dataset OverlappingBlobs(int n) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = 4;
  cfg.num_features = 6;
  cfg.clusters_per_class = 2;
  cfg.center_spread = 4.0;
  cfg.cluster_std = 1.1;
  Pcg32 rng(321);
  return MakeGaussianBlobs(cfg, &rng);
}

Dataset Banana(int n) {
  BananaConfig cfg;
  cfg.num_samples = n;
  cfg.noise_std = 0.2;
  Pcg32 rng(322);
  return MakeBanana(cfg, &rng);
}

Dataset Rings(int n) {
  RingsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = 3;
  cfg.noise_std = 0.15;
  Pcg32 rng(323);
  return MakeConcentricRings(cfg, &rng);
}

Dataset HighDim(int n) {
  HighDimConfig cfg;
  cfg.num_samples = n;
  cfg.num_features = 24;
  cfg.num_informative = 6;
  cfg.num_classes = 3;
  cfg.class_sep = 0.8;
  Pcg32 rng(324);
  return MakeInformativeHighDim(cfg, &rng);
}

// Wide, many-cluster data: 48 tight clusters at d=512 turn into ~48
// balls, so from the 33rd ball on the flat r_conf scan runs in more
// than one chunk (ParallelGrain(512) = 16 balls) and past the pool's
// work threshold, i.e. split across workers at every thread count >= 2.
Dataset WideClusters(int n) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = 3;
  cfg.num_features = 512;
  cfg.clusters_per_class = 16;
  cfg.center_spread = 4.0;
  cfg.cluster_std = 1.0;
  Pcg32 rng(325);
  return MakeGaussianBlobs(cfg, &rng);
}

// Every field of the granulation must match bit-for-bit: balls (members,
// centers, radii, labels), noise, orphans, and the iteration count.
void ExpectIdenticalGranulation(const RdGbgResult& a, const RdGbgResult& b,
                                int threads) {
  ASSERT_EQ(a.balls.size(), b.balls.size()) << "threads=" << threads;
  for (int i = 0; i < a.balls.size(); ++i) {
    const GranularBall& ba = a.balls.ball(i);
    const GranularBall& bb = b.balls.ball(i);
    ASSERT_EQ(ba.members, bb.members) << "ball " << i << " threads=" << threads;
    ASSERT_EQ(ba.label, bb.label);
    ASSERT_EQ(ba.center_index, bb.center_index);
    ASSERT_EQ(ba.center, bb.center);  // exact double equality
    const double ra = ba.radius, rb = bb.radius;
    ASSERT_EQ(ra, rb) << "ball " << i << " threads=" << threads;
  }
  ASSERT_EQ(a.noise_indices, b.noise_indices) << "threads=" << threads;
  ASSERT_EQ(a.orphan_indices, b.orphan_indices) << "threads=" << threads;
  ASSERT_EQ(a.iterations, b.iterations) << "threads=" << threads;
}

Dataset PickDataset(int which) {
  return which == 0   ? OverlappingBlobs(900)
         : which == 1 ? Banana(800)
         : which == 2 ? Rings(800)
         : which == 3 ? HighDim(700)
                      : WideClusters(600);
}

class RdGbgThreadDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(RdGbgThreadDeterminismTest, OutputIdenticalAcrossThreadCounts) {
  const int which = GetParam();
  const Dataset ds = PickDataset(which);
  RdGbgConfig cfg;
  cfg.seed = 77 + which;
  cfg.num_threads = 1;
  const RdGbgResult reference = GenerateRdGbg(ds, cfg);
  for (int threads : ThreadCountsUnderTest()) {
    cfg.num_threads = threads;
    const RdGbgResult run = GenerateRdGbg(ds, cfg);
    ExpectIdenticalGranulation(reference, run, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(SyntheticDatasets, RdGbgThreadDeterminismTest,
                         ::testing::Range(0, 5));

// RunGbabs on the same sets: the borderline scan splits its dimensions
// over the pool (per-worker flags, OR'd at the end), so the sampled
// indices and borderline balls must not depend on the thread count.
// WideClusters (d = 512) is above the scan's parallel floor, so there it
// runs on several workers at every thread count >= 2.
class GbabsThreadDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(GbabsThreadDeterminismTest, SampleIdenticalAcrossThreadCounts) {
  const int which = GetParam();
  const Dataset ds = PickDataset(which);
  GbabsConfig cfg;
  cfg.gbg.seed = 91 + which;
  cfg.gbg.num_threads = 1;
  const GbabsResult reference = RunGbabs(ds, cfg);
  if (which == 4) {
    ASSERT_GE(static_cast<std::int64_t>(reference.gbg.balls.size()) *
                  ds.num_features(),
              kBorderlineScanMinParallelUnits);
  }
  for (int threads : ThreadCountsUnderTest()) {
    cfg.gbg.num_threads = threads;
    const GbabsResult run = RunGbabs(ds, cfg);
    ASSERT_EQ(run.sampled_indices, reference.sampled_indices)
        << "threads=" << threads;
    ASSERT_EQ(run.borderline_ball_ids, reference.borderline_ball_ids)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(SyntheticDatasets, GbabsThreadDeterminismTest,
                         ::testing::Range(0, 5));

// The index-strategy axis: every tree-backed neighbor pass — the
// DynamicKdTree, and the metric BallTree — must reproduce the flat
// scan's granulation exactly — same balls (centers, radii, members),
// noise, orphans, iterations — at every thread count. The r_conf pass
// is the chunked flat gap scan under every strategy; on WideClusters it
// splits across workers in the tree runs while the single-thread kFlat
// reference folds it serially. This equality contract is what makes
// RdGbgConfig::index_strategy a pure wall-clock knob that kAuto may
// flip freely by problem size.
class RdGbgStrategyEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RdGbgStrategyEquivalenceTest, TreeStrategiesMatchFlatBitForBit) {
  const int which = GetParam();
  const Dataset ds = PickDataset(which);
  RdGbgConfig cfg;
  cfg.seed = 177 + which;
  cfg.num_threads = 1;
  cfg.index_strategy = IndexStrategy::kFlat;
  const RdGbgResult reference = GenerateRdGbg(ds, cfg);
  for (IndexStrategy strategy :
       {IndexStrategy::kTree, IndexStrategy::kBallTree}) {
    cfg.index_strategy = strategy;
    for (int threads : ThreadCountsUnderTest()) {
      cfg.num_threads = threads;
      const RdGbgResult run = GenerateRdGbg(ds, cfg);
      ExpectIdenticalGranulation(reference, run, threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SyntheticDatasets, RdGbgStrategyEquivalenceTest,
                         ::testing::Range(0, 5));

// GB-kNN's ball-center scan has the same contract: both center tree
// backends and the flat scan must vote out identical labels for every
// query.
TEST(GbKnnStrategyEquivalenceTest, CenterTreePredictionsMatchFlat) {
  const Dataset train = OverlappingBlobs(900);
  const Dataset test = OverlappingBlobs(400);
  for (int k : {1, 3, 7}) {
    RdGbgConfig gbg;
    gbg.seed = 15 + k;
    gbg.index_strategy = IndexStrategy::kFlat;
    GbKnnClassifier flat(gbg, k);
    Pcg32 rng_flat(8);
    flat.Fit(train, &rng_flat);
    ASSERT_EQ(flat.resolved_index_strategy(), IndexStrategy::kFlat);
    const std::vector<int> expected = flat.PredictBatch(test.x());

    for (IndexStrategy strategy :
         {IndexStrategy::kTree, IndexStrategy::kBallTree}) {
      gbg.index_strategy = strategy;
      GbKnnClassifier tree(gbg, k);
      Pcg32 rng_tree(8);
      tree.Fit(train, &rng_tree);
      ASSERT_EQ(tree.resolved_index_strategy(), strategy);

      ASSERT_EQ(tree.PredictBatch(test.x()), expected) << "k=" << k;

      // Flipping the knob on a fitted model re-resolves in place.
      tree.set_index_strategy(IndexStrategy::kFlat);
      ASSERT_EQ(tree.resolved_index_strategy(), IndexStrategy::kFlat);
      ASSERT_EQ(tree.PredictBatch(test.x()), expected);
    }
  }
}

TEST(KMeansThreadDeterminismTest, AssignmentsAndCentersIdentical) {
  const Dataset ds = OverlappingBlobs(1200);
  KMeansConfig cfg;
  cfg.num_clusters = 7;
  cfg.max_iterations = 25;
  cfg.num_threads = 1;
  Pcg32 rng_ref(9);
  const KMeansResult reference = RunKMeans(ds.x(), cfg, &rng_ref);
  for (int threads : ThreadCountsUnderTest()) {
    cfg.num_threads = threads;
    Pcg32 rng(9);
    const KMeansResult run = RunKMeans(ds.x(), cfg, &rng);
    ASSERT_EQ(reference.assignments, run.assignments) << "threads=" << threads;
    ASSERT_EQ(reference.iterations, run.iterations);
    ASSERT_EQ(reference.centers.data(), run.centers.data())
        << "threads=" << threads;
  }
}

TEST(DpcThreadDeterminismTest, DensityDeltaPeaksAssignmentsIdentical) {
  const Dataset ds = Rings(500);
  DpcConfig cfg;
  cfg.num_clusters = 3;
  cfg.num_threads = 1;
  const DpcResult reference = RunDpc(ds.x(), cfg);
  for (int threads : ThreadCountsUnderTest()) {
    cfg.num_threads = threads;
    const DpcResult run = RunDpc(ds.x(), cfg);
    ASSERT_EQ(reference.density, run.density) << "threads=" << threads;
    ASSERT_EQ(reference.delta, run.delta) << "threads=" << threads;
    ASSERT_EQ(reference.peaks, run.peaks);
    ASSERT_EQ(reference.assignments, run.assignments);
  }
}

TEST(GbKnnThreadDeterminismTest, BatchPredictionsIdentical) {
  const Dataset train = OverlappingBlobs(700);
  const Dataset test = OverlappingBlobs(300);
  RdGbgConfig gbg;
  gbg.seed = 5;
  gbg.num_threads = 1;
  GbKnnClassifier reference(gbg, /*k=*/3);
  Pcg32 rng_ref(4);
  reference.Fit(train, &rng_ref);
  const std::vector<int> expected = reference.PredictBatch(test.x());
  for (int threads : ThreadCountsUnderTest()) {
    gbg.num_threads = threads;
    GbKnnClassifier clf(gbg, /*k=*/3);
    Pcg32 rng(4);
    clf.Fit(train, &rng);
    ASSERT_EQ(clf.PredictBatch(test.x()), expected) << "threads=" << threads;
  }
}

// A model served through the ModelRegistry's micro-batching engine has
// the same contract: batch composition is a wall-clock detail, never a
// prediction input, so any number of concurrent callers sharing the
// served engine must reproduce the fitted model's serial PredictBatch
// bit-for-bit — snapshot per request, like the server's workers.
TEST(RegistryThreadDeterminismTest, ServedPredictionsIdenticalAcrossCallers) {
  const servetest::ModelBundle bundle = servetest::MakeGbKnnBundle("S5");
  const Dataset& test = bundle.split.test;
  for (int threads : ThreadCountsUnderTest()) {
    ModelRegistry registry(servetest::SmallBatchOptions());
    ASSERT_TRUE(registry.Publish("m", servetest::LoadBundle(bundle)).ok());
    const int callers = ResolveNumThreads(threads);
    std::vector<int> got(test.size(), -1);
    std::vector<std::thread> pool;
    pool.reserve(callers);
    for (int t = 0; t < callers; ++t) {
      pool.emplace_back([&, t] {
        for (int i = t; i < test.size(); i += callers) {
          const std::shared_ptr<const ServedModel> snap = registry.Get("m");
          ASSERT_NE(snap, nullptr);
          const StatusOr<int> label =
              snap->engine->Predict(test.row(i), test.num_features());
          ASSERT_TRUE(label.ok()) << label.status().ToString();
          got[i] = *label;
        }
      });
    }
    for (std::thread& th : pool) th.join();
    ASSERT_EQ(got, bundle.expected) << "callers=" << callers;
  }
}

}  // namespace
}  // namespace gbx
