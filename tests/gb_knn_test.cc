#include "ml/gb_knn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/noise.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "simd/simd.h"

namespace gbx {
namespace {

Dataset Blobs(int n, int classes, std::uint64_t seed, double spread = 6.0,
              double std_dev = 0.8) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = classes;
  cfg.num_features = 3;
  cfg.center_spread = spread;
  cfg.cluster_std = std_dev;
  Pcg32 rng(seed);
  return MakeGaussianBlobs(cfg, &rng);
}

TEST(GbKnnTest, GeneralizesOnSeparableBlobs) {
  const Dataset all = Blobs(600, 3, 1);
  Pcg32 split_rng(2);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.3, &split_rng);
  GbKnnClassifier gbknn;
  Pcg32 rng(3);
  gbknn.Fit(split.train, &rng);
  EXPECT_GT(Accuracy(split.test.y(), gbknn.PredictBatch(split.test.x())),
            0.93);
}

TEST(GbKnnTest, ModelIsSmallerThanTrainingSet) {
  const Dataset ds = Blobs(800, 2, 4, /*spread=*/10.0, /*std_dev=*/0.5);
  GbKnnClassifier gbknn;
  Pcg32 rng(5);
  gbknn.Fit(ds, &rng);
  // Compact granulation: far fewer balls than samples on separable data.
  EXPECT_LT(gbknn.num_balls(), ds.size() / 3);
  EXPECT_GT(gbknn.num_balls(), 0);
}

TEST(GbKnnTest, MoreRobustThanOneNnUnderLabelNoise) {
  // 1-NN memorizes noise; GB-kNN's granulation removes much of it.
  const Dataset all = Blobs(900, 2, 6, /*spread=*/8.0, /*std_dev=*/0.7);
  Pcg32 split_rng(7);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.3, &split_rng);
  Dataset noisy_train = split.train;
  Pcg32 noise_rng(8);
  InjectClassNoise(&noisy_train, 0.25, &noise_rng);

  GbKnnClassifier gbknn;
  KnnClassifier one_nn(1);
  Pcg32 rng_a(9);
  Pcg32 rng_b(9);
  gbknn.Fit(noisy_train, &rng_a);
  one_nn.Fit(noisy_train, &rng_b);
  const double gb_acc =
      Accuracy(split.test.y(), gbknn.PredictBatch(split.test.x()));
  const double nn_acc =
      Accuracy(split.test.y(), one_nn.PredictBatch(split.test.x()));
  EXPECT_GT(gb_acc, nn_acc);
}

TEST(GbKnnTest, KBallVoting) {
  const Dataset ds = Blobs(300, 2, 10);
  GbKnnClassifier gbknn(RdGbgConfig{}, /*k=*/3);
  Pcg32 rng(11);
  gbknn.Fit(ds, &rng);
  for (int pred : gbknn.PredictBatch(ds.x())) {
    EXPECT_GE(pred, 0);
    EXPECT_LT(pred, 2);
  }
}

TEST(GbKnnTest, DeterministicGivenRngState) {
  const Dataset ds = Blobs(400, 3, 12);
  GbKnnClassifier a;
  GbKnnClassifier b;
  Pcg32 rng_a(13);
  Pcg32 rng_b(13);
  a.Fit(ds, &rng_a);
  b.Fit(ds, &rng_b);
  EXPECT_EQ(a.PredictBatch(ds.x()), b.PredictBatch(ds.x()));
  EXPECT_EQ(a.num_balls(), b.num_balls());
}

TEST(GbKnnTest, TrainAccuracyHighOnCleanData) {
  const Dataset ds = Blobs(500, 3, 14, /*spread=*/8.0, /*std_dev=*/0.6);
  GbKnnClassifier gbknn;
  Pcg32 rng(15);
  gbknn.Fit(ds, &rng);
  EXPECT_GT(Accuracy(ds.y(), gbknn.PredictBatch(ds.x())), 0.97);
}

// --- Top-k oracle battery -------------------------------------------
// NearestBalls under the fused flat scan (on every SIMD level the host
// runs) and under both forced center trees must equal an inline
// partial_sort over (surface score, ball index) pairs, bit for bit.

// A model over hand-placed balls. The identity scaler (mins 0, maxs 1)
// keeps queries in the balls' space, so the oracle can score raw
// queries; ball i carries label i % 3.
GbKnnClassifier HandModel(const Matrix& centers,
                          const std::vector<double>& radii,
                          IndexStrategy strategy, int num_threads) {
  const int m = centers.rows();
  const int d = centers.cols();
  std::vector<GranularBall> balls(m);
  for (int i = 0; i < m; ++i) {
    balls[i].members = {i};
    balls[i].center.assign(centers.Row(i), centers.Row(i) + d);
    balls[i].center_index = i;
    balls[i].radius = radii[i];
    balls[i].label = i % 3;
  }
  MinMaxScaler scaler;
  scaler.Restore(std::vector<double>(d, 0.0), std::vector<double>(d, 1.0));
  RdGbgConfig cfg;
  cfg.index_strategy = strategy;
  cfg.num_threads = num_threads;
  GbKnnClassifier model(cfg, /*k=*/1);
  model.Restore(GranularBallSet(std::move(balls), centers, 3),
                std::move(scaler), 3);
  return model;
}

std::vector<std::pair<double, int>> OracleTopK(
    const Matrix& centers, const std::vector<double>& radii, const double* q,
    int k) {
  std::vector<std::pair<double, int>> pairs;
  for (int i = 0; i < centers.rows(); ++i) {
    double s = 0.0;
    for (int j = 0; j < centers.cols(); ++j) {
      const double diff = q[j] - centers.At(i, j);
      s += diff * diff;
    }
    const double dist = std::sqrt(s);
    pairs.emplace_back(dist <= radii[i] ? dist - radii[i] : dist, i);
  }
  const std::size_t kk = std::min<std::size_t>(k, pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + kk, pairs.end());
  pairs.resize(kk);
  return pairs;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// `period` > 0 makes ball i a copy of ball i % period, center and
// radius, so exact ties land in one SIMD lane across blocks (period 8)
// and across lanes (periods 2 and 3); each must go to the lower index.
// `num_threads` is the models' worker count (0: the process default).
void CheckTopKBattery(int m, int d, int period, std::uint64_t seed,
                      int num_threads = 0) {
  Pcg32 rng(seed);
  Matrix centers(m, d);
  std::vector<double> radii(m);
  for (int i = 0; i < m; ++i) {
    if (period > 0 && i >= period) {
      const double* src = centers.Row(i % period);
      std::copy(src, src + d, centers.Row(i));
      radii[i] = radii[i % period];
      continue;
    }
    for (int j = 0; j < d; ++j) centers.At(i, j) = rng.NextGaussian();
    radii[i] = rng.NextDouble() * 0.4;
  }
  std::vector<std::vector<double>> queries;
  for (int t = 0; t < 6; ++t) {
    std::vector<double> q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.NextGaussian() * 1.5;
    queries.push_back(q);
  }
  // Exactly on a center, and half a radius off it (inside the ball,
  // score < 0).
  for (int b : {0, m / 2, m - 1}) {
    std::vector<double> q(centers.Row(b), centers.Row(b) + d);
    queries.push_back(q);
    q[0] += radii[b] * 0.5;
    queries.push_back(q);
  }
  const GbKnnClassifier flat =
      HandModel(centers, radii, IndexStrategy::kFlat, num_threads);
  const GbKnnClassifier tree =
      HandModel(centers, radii, IndexStrategy::kTree, num_threads);
  const GbKnnClassifier ball =
      HandModel(centers, radii, IndexStrategy::kBallTree, num_threads);
  ASSERT_EQ(tree.resolved_index_strategy(), IndexStrategy::kTree);
  ASSERT_EQ(ball.resolved_index_strategy(), IndexStrategy::kBallTree);
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kNeon,
                            simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::Supported(level)) continue;
    simd::SetLevelForTest(level);
    for (const std::vector<double>& q : queries) {
      for (int k : {1, 2, 5, m, m + 4}) {
        const auto want = OracleTopK(centers, radii, q.data(), k);
        for (const GbKnnClassifier* model : {&flat, &tree, &ball}) {
          const auto got = model->NearestBalls(q.data(), k);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t r = 0; r < want.size(); ++r) {
            ASSERT_EQ(got[r].second, want[r].second)
                << simd::LevelName(level) << " "
                << IndexStrategyName(model->resolved_index_strategy())
                << " m=" << m << " period=" << period << " k=" << k
                << " rank=" << r;
            ASSERT_TRUE(SameBits(got[r].first, want[r].first));
          }
        }
      }
      EXPECT_EQ(flat.Predict(q.data()),
                OracleTopK(centers, radii, q.data(), 1)[0].second % 3);
    }
  }
  simd::ReresolveFromEnvForTest();
}

TEST(GbKnnTopKTest, AllStrategiesMatchPartialSortOracle) {
  for (int m : {1, 7, 8, 9, 1003}) {
    for (int d : {2, 10}) {
      CheckTopKBattery(m, d, /*period=*/0, 1000 + m * 7 + d);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(GbKnnTopKTest, DuplicatedCentersTieToLowerIndex) {
  for (int m : {9, 1003}) {
    for (int period : {2, 3, 8}) {
      CheckTopKBattery(m, 4, period, 2000 + m + period);
      if (HasFatalFailure()) return;
    }
  }
}

// Past 2^18 balls × dims one Predict splits the flat scan into chunks
// over the pool and merges the chunks' lists; at d = 256 a thousand-odd
// balls get there. Ties (period 3) then span chunk boundaries.
TEST(GbKnnTopKTest, SplitFlatScanMatchesOracle) {
  for (int period : {0, 3}) {
    for (int threads : {2, 3}) {
      CheckTopKBattery(1103, 256, period, 3000 + period + threads, threads);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace gbx
