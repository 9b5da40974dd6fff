#include "core/gbabs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "thread_counts.h"

namespace gbx {
namespace {

Dataset Blobs(int n, int classes, std::uint64_t seed, double spread = 5.0,
              double std_dev = 0.8) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = classes;
  cfg.num_features = 2;
  cfg.center_spread = spread;
  cfg.cluster_std = std_dev;
  Pcg32 rng(seed);
  return MakeGaussianBlobs(cfg, &rng);
}

Dataset MakeGaussianBlobsForScanTest() {
  BlobsConfig cfg;
  cfg.num_samples = 400;
  cfg.num_classes = 3;
  cfg.num_features = 12;
  cfg.center_spread = 6.0;
  cfg.cluster_std = 0.9;
  Pcg32 rng(77);
  return MakeGaussianBlobs(cfg, &rng);
}

TEST(GbabsTest, SampledIsSubsetWithoutDuplicates) {
  const Dataset ds = Blobs(400, 3, 1);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_FALSE(result.sampled_indices.empty());
  std::set<int> unique(result.sampled_indices.begin(),
                       result.sampled_indices.end());
  EXPECT_EQ(unique.size(), result.sampled_indices.size());
  for (int idx : result.sampled_indices) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, ds.size());
  }
  EXPECT_EQ(result.sampled.size(),
            static_cast<int>(result.sampled_indices.size()));
  EXPECT_TRUE(std::is_sorted(result.sampled_indices.begin(),
                             result.sampled_indices.end()));
}

TEST(GbabsTest, SampledFeaturesAreOriginalUnscaled) {
  const Dataset ds = Blobs(200, 2, 2);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  for (std::size_t i = 0; i < result.sampled_indices.size(); ++i) {
    const int src = result.sampled_indices[i];
    for (int j = 0; j < ds.num_features(); ++j) {
      EXPECT_DOUBLE_EQ(result.sampled.feature(static_cast<int>(i), j),
                       ds.feature(src, j));
    }
    EXPECT_EQ(result.sampled.label(static_cast<int>(i)), ds.label(src));
  }
}

TEST(GbabsTest, SamplingRatioBelowOneOnSeparableData) {
  const Dataset ds = Blobs(600, 2, 3, /*spread=*/10.0, /*std_dev=*/0.5);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_GT(result.sampling_ratio, 0.0);
  EXPECT_LT(result.sampling_ratio, 0.7);
}

TEST(GbabsTest, BorderlineBallsAreFlaggedBallsOnly) {
  const Dataset ds = Blobs(300, 3, 4);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_FALSE(result.borderline_ball_ids.empty());
  for (int id : result.borderline_ball_ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, result.gbg.balls.size());
  }
  // Every sampled point belongs to some borderline ball.
  std::set<int> borderline_members;
  for (int id : result.borderline_ball_ids) {
    const GranularBall& ball = result.gbg.balls.ball(id);
    borderline_members.insert(ball.members.begin(), ball.members.end());
  }
  for (int idx : result.sampled_indices) {
    EXPECT_EQ(borderline_members.count(idx), 1u) << idx;
  }
}

TEST(GbabsTest, OneDimensionalBoundaryPicksFacingSamples) {
  // Two 1-D clusters: class 0 at {0, 0.1, ..., 0.5}, class 1 at
  // {2.0, ..., 2.5}. The boundary samples are 0.5 (max of the left ball)
  // and 2.0 (min of the right ball).
  Matrix x(12, 1);
  std::vector<int> y(12);
  for (int i = 0; i < 6; ++i) {
    x.At(i, 0) = 0.1 * i;
    y[i] = 0;
    x.At(6 + i, 0) = 2.0 + 0.1 * i;
    y[6 + i] = 1;
  }
  const Dataset ds(std::move(x), std::move(y));
  GbabsConfig cfg;
  cfg.gbg.density_tolerance = 3;
  const GbabsResult result = RunGbabs(ds, cfg);
  // The facing extremes (indices 5 and 6) must be sampled.
  EXPECT_TRUE(std::binary_search(result.sampled_indices.begin(),
                                 result.sampled_indices.end(), 5));
  EXPECT_TRUE(std::binary_search(result.sampled_indices.begin(),
                                 result.sampled_indices.end(), 6));
  // Deep-interior points (0 and 11) may only appear via singleton orphan
  // balls; on this clean geometry they should not be sampled.
  EXPECT_FALSE(std::binary_search(result.sampled_indices.begin(),
                                  result.sampled_indices.end(), 0));
  EXPECT_FALSE(std::binary_search(result.sampled_indices.begin(),
                                  result.sampled_indices.end(), 11));
}

TEST(GbabsTest, SingleClassFallsBackToCenters) {
  BlobsConfig cfg;
  cfg.num_samples = 80;
  cfg.num_classes = 1;
  Pcg32 rng(5);
  const Dataset ds = MakeGaussianBlobs(cfg, &rng);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_FALSE(result.sampled_indices.empty());
  EXPECT_TRUE(result.borderline_ball_ids.empty());
}

TEST(GbabsTest, Deterministic) {
  const Dataset ds = Blobs(250, 2, 6);
  GbabsConfig cfg;
  cfg.gbg.seed = 123;
  const GbabsResult a = RunGbabs(ds, cfg);
  const GbabsResult b = RunGbabs(ds, cfg);
  EXPECT_EQ(a.sampled_indices, b.sampled_indices);
  EXPECT_EQ(a.borderline_ball_ids, b.borderline_ball_ids);
}

class GbabsRhoTest : public ::testing::TestWithParam<int> {};

TEST_P(GbabsRhoTest, ValidAcrossDensityTolerances) {
  GbabsConfig cfg;
  cfg.gbg.density_tolerance = GetParam();
  const Dataset ds = Blobs(300, 3, 7);
  const GbabsResult result = RunGbabs(ds, cfg);
  EXPECT_GT(result.sampled.size(), 0);
  EXPECT_LE(result.sampled.size(), ds.size());
  EXPECT_TRUE(result.gbg.balls.CheckPurity(ds.y()));
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, GbabsRhoTest,
                         ::testing::Values(3, 5, 7, 9, 11, 13, 15, 17, 19));

TEST(GbabsScanDimsTest, ZeroMeansAllDimensions) {
  const Dataset ds = Blobs(200, 2, 20);
  const GbabsResult full = RunGbabs(ds, GbabsConfig{});
  const std::vector<int> dims =
      BorderlineScanDimensions(full.gbg.balls, 0);
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[0], 0);
  EXPECT_EQ(dims[1], 1);
}

TEST(GbabsScanDimsTest, PicksHighVarianceDimensions) {
  // Dimension 1 carries all the structure; dimension 0 is nearly constant.
  Pcg32 gen(21);
  Matrix x(200, 3);
  std::vector<int> y(200);
  for (int i = 0; i < 200; ++i) {
    const int cls = i % 2;
    x.At(i, 0) = gen.NextGaussian() * 0.01;
    x.At(i, 1) = cls * 10.0 + gen.NextGaussian();
    x.At(i, 2) = gen.NextGaussian() * 0.01;
    y[i] = cls;
  }
  const Dataset ds(std::move(x), std::move(y));
  const RdGbgResult gbg = GenerateRdGbg(ds, RdGbgConfig{});
  const std::vector<int> dims = BorderlineScanDimensions(gbg.balls, 1);
  ASSERT_EQ(dims.size(), 1u);
  EXPECT_EQ(dims[0], 1);
}

TEST(GbabsScanDimsTest, SubsetScanSamplesSubsetOfFullScan) {
  const Dataset ds = MakeGaussianBlobsForScanTest();
  GbabsConfig full_cfg;
  GbabsConfig subset_cfg;
  subset_cfg.max_scan_dimensions = 3;
  subset_cfg.gbg = full_cfg.gbg;
  const GbabsResult full = RunGbabs(ds, full_cfg);
  const GbabsResult subset = RunGbabs(ds, subset_cfg);
  // Same granulation (same seed), fewer scan dimensions: the subset's
  // samples are contained in the full scan's samples.
  EXPECT_LE(subset.sampled_indices.size(), full.sampled_indices.size());
  for (int idx : subset.sampled_indices) {
    EXPECT_TRUE(std::binary_search(full.sampled_indices.begin(),
                                   full.sampled_indices.end(), idx));
  }
  EXPECT_FALSE(subset.sampled_indices.empty());
}

TEST(GbabsScanDimsTest, SubsetScanKeepsAccuracyOnHighDim) {
  const Dataset ds = MakeGaussianBlobsForScanTest();
  GbabsConfig subset_cfg;
  subset_cfg.max_scan_dimensions = 4;
  const GbabsResult subset = RunGbabs(ds, subset_cfg);
  Pcg32 rng(22);
  DecisionTreeClassifier dt;
  dt.Fit(subset.sampled, &rng);
  EXPECT_GT(Accuracy(ds.y(), dt.PredictBatch(ds.x())), 0.85);
}

TEST(GbabsTest, PreservesDecisionTreeAccuracyOnSeparableData) {
  // Lossless-compression sanity check (§V-C): training a DT on the GBABS
  // sample should roughly match training on the full data for clean,
  // separable blobs.
  const Dataset all = Blobs(900, 3, 8, /*spread=*/8.0, /*std_dev=*/0.8);
  Pcg32 split_rng(80);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.33, &split_rng);
  const Dataset& train = split.train;
  const Dataset& test = split.test;
  const GbabsResult sampled = RunGbabs(train, GbabsConfig{});

  Pcg32 rng(9);
  DecisionTreeClassifier full_dt;
  full_dt.Fit(train, &rng);
  DecisionTreeClassifier sampled_dt;
  sampled_dt.Fit(sampled.sampled, &rng);

  const double full_acc = Accuracy(test.y(), full_dt.PredictBatch(test.x()));
  const double sampled_acc =
      Accuracy(test.y(), sampled_dt.PredictBatch(test.x()));
  EXPECT_GT(sampled_acc, full_acc - 0.08);
}

// The borderline scan written the direct way, as a reference: per scanned
// dimension, ball ids sorted by (center coordinate, id) with `<` on
// doubles (so -0.0 and +0.0 tie), results collected in ordered sets.
void ReferenceBorderline(const GranularBallSet& balls, int max_scan_dimensions,
                         std::vector<int>* sampled,
                         std::vector<int>* borderline) {
  const Matrix& x = balls.scaled_features();
  const auto extreme = [&](const GranularBall& ball, int dim, bool want_max) {
    int best = ball.members[0];
    for (int idx : ball.members) {
      const double v = x.At(idx, dim);
      if (want_max ? v > x.At(best, dim) : v < x.At(best, dim)) best = idx;
    }
    return best;
  };
  std::set<int> samples;
  std::set<int> flagged;
  std::vector<int> order(balls.size());
  for (int dim : BorderlineScanDimensions(balls, max_scan_dimensions)) {
    for (int i = 0; i < balls.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double va = balls.ball(a).center[dim];
      const double vb = balls.ball(b).center[dim];
      return va != vb ? va < vb : a < b;
    });
    for (int i = 0; i + 1 < balls.size(); ++i) {
      const GranularBall& left = balls.ball(order[i]);
      const GranularBall& right = balls.ball(order[i + 1]);
      if (left.label == right.label) continue;
      flagged.insert({order[i], order[i + 1]});
      samples.insert(extreme(left, dim, /*want_max=*/true));
      samples.insert(extreme(right, dim, /*want_max=*/false));
    }
  }
  sampled->assign(samples.begin(), samples.end());
  borderline->assign(flagged.begin(), flagged.end());
}

// SampleBorderlineIndices must equal the reference at every thread count.
void ExpectMatchesReference(const GranularBallSet& balls,
                            int max_scan_dimensions = 0) {
  std::vector<int> want_sampled;
  std::vector<int> want_borderline;
  ReferenceBorderline(balls, max_scan_dimensions, &want_sampled,
                      &want_borderline);
  for (int threads : ThreadCountsUnderTest()) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<int> borderline;
    EXPECT_EQ(SampleBorderlineIndices(balls, &borderline, max_scan_dimensions,
                                      threads),
              want_sampled);
    EXPECT_EQ(borderline, want_borderline);
  }
}

// Builds the ball set whose scaled feature matrix is `rows`.
GranularBallSet BallSetFromRows(std::vector<GranularBall> balls,
                                const std::vector<std::vector<double>>& rows,
                                int p, int classes) {
  Matrix x(static_cast<int>(rows.size()), p);
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < p; ++j) x.At(i, j) = rows[i][j];
  }
  return GranularBallSet(std::move(balls), std::move(x), classes);
}

// m balls in p dimensions over three labels, each center coordinate
// drawn from `values`. A ball has 1-3 members; the first sits on the
// center, the others move each coordinate to another draw with
// probability 1/2. The first `constant_dims` dimensions hold one value
// (values[0]) at every center.
GranularBallSet PoolBalls(std::uint64_t seed, int m, int p,
                          const std::vector<double>& values,
                          int constant_dims = 0) {
  Pcg32 rng(seed);
  const auto draw = [&] {
    return values[rng.NextBounded(static_cast<std::uint32_t>(values.size()))];
  };
  std::vector<std::vector<double>> rows;
  std::vector<GranularBall> balls(m);
  for (GranularBall& ball : balls) {
    ball.label = static_cast<int>(rng.NextBounded(3));
    ball.center.resize(p);
    for (int j = 0; j < p; ++j) {
      ball.center[j] = j < constant_dims ? values[0] : draw();
    }
    const int members = 1 + static_cast<int>(rng.NextBounded(3));
    for (int k = 0; k < members; ++k) {
      std::vector<double> row = ball.center;
      if (k > 0) {
        for (double& v : row) {
          if (rng.NextBounded(2) == 0) v = draw();
        }
      }
      ball.members.push_back(static_cast<int>(rows.size()));
      rows.push_back(std::move(row));
    }
    ball.center_index = ball.members[0];
  }
  return BallSetFromRows(std::move(balls), rows, p, 3);
}

// Balls whose centers (and members) sit on a coarse grid, so center
// coordinates tie along every dimension and the ball-id tie-break
// decides which balls are adjacent.
GranularBallSet TiedCenterBalls(std::uint64_t seed) {
  Pcg32 rng(seed);
  const int m = 2 + static_cast<int>(rng.NextBounded(40));
  const int p = 1 + static_cast<int>(rng.NextBounded(4));
  const int q = 2 + static_cast<int>(rng.NextBounded(2));
  std::vector<std::vector<double>> rows;
  std::vector<GranularBall> balls(m);
  for (GranularBall& ball : balls) {
    ball.label = static_cast<int>(rng.NextBounded(q));
    ball.center.resize(p);
    for (double& c : ball.center) c = 0.5 * rng.NextBounded(3);
    const int members = 1 + static_cast<int>(rng.NextBounded(3));
    for (int k = 0; k < members; ++k) {
      std::vector<double> row = ball.center;
      if (k > 0) {
        for (double& v : row) v += 0.1 * rng.NextInt(-1, 1);
      }
      ball.members.push_back(static_cast<int>(rows.size()));
      rows.push_back(std::move(row));
    }
    ball.center_index = ball.members[0];
    ball.radius = members > 1 ? 0.2 : 0.0;
  }
  return BallSetFromRows(std::move(balls), rows, p, q);
}

TEST(GbabsTest, TiedCenterCoordinatesBreakTiesByBallId) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesReference(TiedCenterBalls(seed));
  }
}

TEST(GbabsOracleTest, SignedZerosTie) {
  // Ball 1 sits at -0.0 between two class-0 balls at +0.0. Tied, the
  // three keep id order 0, 1, 2, so both pairs are heterogeneous; were
  // -0.0 ranked first, the order would be 1, 0, 2 and ball 2 would not
  // be borderline.
  std::vector<GranularBall> balls(3);
  const double coords[] = {0.0, -0.0, 0.0};
  for (int i = 0; i < 3; ++i) {
    balls[i].center = {coords[i]};
    balls[i].members = {i};
    balls[i].center_index = i;
    balls[i].label = i == 1 ? 1 : 0;
  }
  Matrix x(3, 1);
  for (int i = 0; i < 3; ++i) x.At(i, 0) = coords[i];
  const GranularBallSet set(std::move(balls), std::move(x), 2);
  for (int threads : ThreadCountsUnderTest()) {
    std::vector<int> borderline;
    EXPECT_EQ(SampleBorderlineIndices(set, &borderline, 0, threads),
              (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(borderline, (std::vector<int>{0, 1, 2}));
  }
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesReference(PoolBalls(seed, 30, 3, {-0.0, 0.0, 1.0}));
  }
}

TEST(GbabsOracleTest, NegativeSubnormalAndLargeCoordinates) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  const std::vector<double> values = {
      -kMax, -1e300, -3.5, -kMinNormal, -1e-310, -kDenorm, -0.0, 0.0,
      kDenorm, 2 * kDenorm, 1e-310, kMinNormal, 2.25, 1e300, kMax};
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesReference(PoolBalls(100 + seed, 60, 4, values));
  }
}

TEST(GbabsOracleTest, ConstantDimensions) {
  const std::vector<double> values = {0.25, -1.0, 0.0, 0.5, 3.0};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesReference(PoolBalls(200 + seed, 40, 4, values,
                                     /*constant_dims=*/2));
    ExpectMatchesReference(PoolBalls(300 + seed, 40, 3, values,
                                     /*constant_dims=*/3));
  }
}

TEST(GbabsOracleTest, BallCountsAroundTheParallelFloor) {
  const std::vector<double> values = {-2.0, -0.5, 0.0, 0.125, 0.75, 1.0};
  constexpr int kDims = 4;
  const int above_floor =
      static_cast<int>(kBorderlineScanMinParallelUnits / kDims) + 1;
  for (int m : {1, 2, above_floor}) {
    SCOPED_TRACE("m " + std::to_string(m));
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      ExpectMatchesReference(PoolBalls(400 + seed, m, kDims, values));
    }
  }
  // Continuous coordinates above the floor: every key byte varies.
  std::vector<double> fine(997);
  for (int i = 0; i < static_cast<int>(fine.size()); ++i) {
    fine[i] = std::sin(0.37 * i) * std::pow(10.0, i % 7 - 3);
  }
  ExpectMatchesReference(PoolBalls(500, above_floor, kDims, fine));
}

TEST(GbabsOracleTest, MaxScanDimensions) {
  std::vector<double> values(61);
  for (int i = 0; i < static_cast<int>(values.size()); ++i) {
    values[i] = 0.05 * (i - 30);
  }
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const GranularBallSet balls = PoolBalls(600 + seed, 300, 8, values);
    for (int k : {1, 3, 7}) {
      SCOPED_TRACE("k " + std::to_string(k));
      ExpectMatchesReference(balls, k);
    }
  }
  // Above the parallel floor with a dimension subset.
  const GranularBallSet wide = PoolBalls(700, 4000, 12, values);
  ExpectMatchesReference(wide, 5);
}

}  // namespace
}  // namespace gbx
