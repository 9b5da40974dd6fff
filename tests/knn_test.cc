#include "ml/knn.h"

#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/paper_suite.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "ml/metrics.h"
#include "output_fingerprint.h"
#include "thread_counts.h"

namespace gbx {
namespace {

TEST(KnnTest, OneNearestNeighborMemorizes) {
  BlobsConfig cfg;
  cfg.num_samples = 100;
  cfg.num_classes = 3;
  Pcg32 gen(1);
  const Dataset ds = MakeGaussianBlobs(cfg, &gen);
  KnnClassifier knn(1);
  Pcg32 rng(2);
  knn.Fit(ds, &rng);
  const std::vector<int> pred = knn.PredictBatch(ds.x());
  EXPECT_DOUBLE_EQ(Accuracy(ds.y(), pred), 1.0);
}

TEST(KnnTest, MajorityVote) {
  // k=3: query near two class-1 points and one class-0 point.
  Matrix x = Matrix::FromRows({{0.0}, {1.0}, {1.1}, {10.0}});
  const Dataset ds(std::move(x), {0, 1, 1, 0});
  KnnClassifier knn(3);
  Pcg32 rng(3);
  knn.Fit(ds, &rng);
  const double q[] = {0.9};
  EXPECT_EQ(knn.Predict(q), 1);
}

TEST(KnnTest, TieBreaksTowardNearestClass) {
  // k=2 with one vote each: the nearer neighbor's class wins.
  Matrix x = Matrix::FromRows({{1.0}, {2.0}});
  const Dataset ds(std::move(x), {0, 1});
  KnnClassifier knn(2);
  Pcg32 rng(4);
  knn.Fit(ds, &rng);
  const double q0[] = {1.1};
  EXPECT_EQ(knn.Predict(q0), 0);
  const double q1[] = {1.9};
  EXPECT_EQ(knn.Predict(q1), 1);
}

TEST(KnnTest, GeneralizesOnSeparableBlobs) {
  BlobsConfig cfg;
  cfg.num_samples = 600;
  cfg.num_classes = 3;
  cfg.num_features = 4;
  cfg.center_spread = 8.0;
  cfg.cluster_std = 1.0;
  Pcg32 gen(5);
  const Dataset all = MakeGaussianBlobs(cfg, &gen);
  Pcg32 split_rng(6);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.3, &split_rng);
  KnnClassifier knn;
  Pcg32 rng(7);
  knn.Fit(split.train, &rng);
  const double acc =
      Accuracy(split.test.y(), knn.PredictBatch(split.test.x()));
  EXPECT_GT(acc, 0.95);
}

TEST(KnnTest, KLargerThanTrainingSet) {
  Matrix x = Matrix::FromRows({{0.0}, {1.0}, {2.0}});
  const Dataset ds(std::move(x), {0, 0, 1});
  KnnClassifier knn(10);
  Pcg32 rng(8);
  knn.Fit(ds, &rng);
  const double q[] = {0.5};
  EXPECT_EQ(knn.Predict(q), 0);  // majority of all three
}

TEST(KnnTest, DefaultKIsFive) { EXPECT_EQ(KnnClassifier().k(), 5); }

// A fitted classifier's index points into its own training rows; a moved
// one queried the moved-from matrix (a null-row read at d = 2).
static_assert(!std::is_move_constructible_v<KnnClassifier>);
static_assert(!std::is_copy_constructible_v<KnnClassifier>);

// One fitted model answers Predict from several pool threads at once, as
// the serving engine's workers call it: every answer equals the serial
// one. d = 2 and d = 8 sit on the two sides of the exact k-nearest
// index's tree/flat cutoff.
TEST(KnnTest, ConcurrentPredictMatchesSerial) {
  for (const int d : {2, 8}) {
    BlobsConfig cfg;
    cfg.num_samples = 1500;
    cfg.num_classes = 3;
    cfg.num_features = d;
    cfg.cluster_std = 2.0;
    Pcg32 gen(50 + d);
    const Dataset ds = MakeGaussianBlobs(cfg, &gen);
    KnnClassifier knn(5);
    Pcg32 rng(9);
    knn.Fit(ds, &rng);
    Pcg32 qgen(60 + d);
    const Dataset queries = MakeGaussianBlobs(cfg, &qgen);
    const std::vector<int> serial = knn.PredictBatch(queries.x());
    for (const int threads : ThreadCountsUnderTest()) {
      SCOPED_TRACE("d=" + std::to_string(d) +
                   " threads=" + std::to_string(threads));
      std::vector<int> parallel(queries.size(), -1);
      ParallelFor(queries.size(), threads, [&](int i) {
        parallel[i] = knn.Predict(queries.x().Row(i));
      });
      EXPECT_EQ(parallel, serial);
    }
  }
}

// kNN (k = 5) predictions pinned over paper-suite stand-ins, row-capped:
// S1, S5 (d = 2), S6 and S13 (d = 256). The held-out rows are predicted
// against a 70 % training split; the training rows themselves are
// predicted too, so every query also meets its own exact duplicate.
struct PinnedKnnCase {
  const char* id;
  int rows;
  std::uint64_t held_out;
  std::uint64_t train;
  friend void PrintTo(const PinnedKnnCase& c, std::ostream* os) {
    *os << c.id << " (" << c.rows << " rows)";
  }
};

class KnnPinnedTest : public ::testing::TestWithParam<PinnedKnnCase> {};

TEST_P(KnnPinnedTest, PredictionsMatchFingerprints) {
  const PinnedKnnCase& c = GetParam();
  const Dataset all = MakePaperDataset(c.id, c.rows, 41);
  Pcg32 split_rng(42);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.3, &split_rng);
  KnnClassifier knn(5);
  Pcg32 rng(43);
  knn.Fit(split.train, &rng);
  const std::uint64_t held_out = Fingerprint(knn.PredictBatch(split.test.x()));
  EXPECT_EQ(held_out, c.held_out) << std::hex << "0x" << held_out;
  const std::uint64_t train = Fingerprint(knn.PredictBatch(split.train.x()));
  EXPECT_EQ(train, c.train) << std::hex << "0x" << train;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, KnnPinnedTest,
    ::testing::Values(
        PinnedKnnCase{"S1", 690, 0x37caa3793417bc8aULL,
                      0x29f4ab0f6fc940e7ULL},
        PinnedKnnCase{"S5", 1200, 0x8fa3bc7ebdcb5f1cULL,
                      0xa0071907ef9b293dULL},
        PinnedKnnCase{"S6", 1200, 0x37f5b29c1def156cULL,
                      0x858f0b78a9e1cb2dULL},
        PinnedKnnCase{"S13", 500, 0x54a64b29c6b5ab90ULL,
                      0x5b7b4936e8ef6729ULL}),
    [](const ::testing::TestParamInfo<PinnedKnnCase>& info) {
      return std::string(info.param.id);
    });

}  // namespace
}  // namespace gbx
