// The IndexStrategy resolution machinery: name/parse round-trips for
// all four strategies and the kAuto tier tables — RD-GBG's size and
// thread gates, GB-kNN's single d<=2 KD-tree tier in front of the
// fused SIMD top-k scan, and KnnIndex's d<=2 tree/flat cutoff.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/index_strategy.h"
#include "ml/gb_knn.h"

namespace gbx {
namespace {

TEST(IndexStrategyTest, NameParseRoundTrip) {
  for (IndexStrategy s :
       {IndexStrategy::kAuto, IndexStrategy::kFlat, IndexStrategy::kTree,
        IndexStrategy::kBallTree}) {
    IndexStrategy parsed = IndexStrategy::kAuto;
    ASSERT_TRUE(ParseIndexStrategy(IndexStrategyName(s), &parsed))
        << IndexStrategyName(s);
    EXPECT_EQ(parsed, s);
  }
  IndexStrategy out = IndexStrategy::kTree;
  EXPECT_FALSE(ParseIndexStrategy("ball-tree", &out));
  EXPECT_FALSE(ParseIndexStrategy("Tree", &out));
  EXPECT_FALSE(ParseIndexStrategy("", &out));
  EXPECT_FALSE(ParseIndexStrategy("sampled", &out));
  EXPECT_EQ(out, IndexStrategy::kTree) << "failed parse must not write";
}

TEST(ResolveRdGbgTest, ExplicitRequestsPassThrough) {
  for (IndexStrategy s : {IndexStrategy::kFlat, IndexStrategy::kTree,
                          IndexStrategy::kBallTree}) {
    EXPECT_EQ(ResolveRdGbgIndexStrategy(s, 1, 1000, 64), s);
  }
}

TEST(ResolveRdGbgTest, UnconditionalKdTiers) {
  // d<=2 from 2000 points at any thread count.
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 2000, 2, 64),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 1999, 2, 1),
            IndexStrategy::kFlat);
  // d<=4 from 16384 points, up to 4 workers.
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 16384, 4, 4),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 16384, 4, 5),
            IndexStrategy::kFlat);
}

TEST(ResolveRdGbgTest, ModerateDimsStayFlatWhateverTheStructure) {
  // Past d=4 the fused flat scan beats the KD-tree on isotropic and on
  // low-intrinsic-dimension data alike, so kAuto resolves from
  // (n, dims, threads) alone and stays flat at a size where the trees
  // would otherwise be candidates.
  for (int dims : {8, 16}) {
    for (int threads : {1, 2}) {
      EXPECT_EQ(
          ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 20000, dims, threads),
          IndexStrategy::kFlat)
          << "dims=" << dims << " threads=" << threads;
    }
  }
}

TEST(ResolveCenterTest, ExplicitRequestsPassThrough) {
  for (IndexStrategy s : {IndexStrategy::kFlat, IndexStrategy::kTree,
                          IndexStrategy::kBallTree}) {
    EXPECT_EQ(ResolveCenterIndexStrategy(s, 1, 1000), s);
    EXPECT_EQ(ResolveCenterIndexStrategy(s, 100000, 2), s);
  }
}

TEST(ResolveCenterTest, KdTreeOnlyAtTwoDimsFrom2048Balls) {
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 2048, 2),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 2048, 1),
            IndexStrategy::kTree);
  // banana's ~1 150-ball model serves flat.
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 2047, 2),
            IndexStrategy::kFlat);
  // From d=3 on, no ball count leaves the fused scan: the old d<=16
  // KD-tree tier and the structure-gated (16, 32] ball-tree tier both
  // lost to it on every measured row.
  for (int dims : {3, 8, 10, 16, 24, 32, 256}) {
    for (int balls : {2048, 4096, 16000, 100000}) {
      EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, balls, dims),
                IndexStrategy::kFlat)
          << "balls=" << balls << " dims=" << dims;
    }
  }
}

// Regression: gbxbench's magic model (7 009 balls, d = 10) sat inside the
// old 4 096-ball, d <= 16 KD-tree tier and served ~6x slower than the
// fused scan. A fitted model of that shape must resolve to the scan.
TEST(ResolveCenterTest, MagicShapedModelServesFlat) {
  const int m = 4096;
  const int d = 10;
  Pcg32 rng(13);
  Matrix centers(m, d);
  std::vector<GranularBall> balls(m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < d; ++j) centers.At(i, j) = rng.NextDouble();
    balls[i].members = {i};
    balls[i].center.assign(centers.Row(i), centers.Row(i) + d);
    balls[i].center_index = i;
    balls[i].radius = 0.01;
    balls[i].label = i % 2;
  }
  MinMaxScaler scaler;
  scaler.Restore(std::vector<double>(d, 0.0), std::vector<double>(d, 1.0));
  GbKnnClassifier model;
  ASSERT_EQ(model.index_strategy(), IndexStrategy::kAuto);
  model.Restore(GranularBallSet(std::move(balls), centers, 2),
                std::move(scaler), 2);
  EXPECT_EQ(model.resolved_index_strategy(), IndexStrategy::kFlat);
}

// KnnIndex keeps the KD-tree at d <= 2 only; every paper-suite set with
// d >= 6 queries faster through the flat scan (index_strategy.cc).
TEST(ResolveKnnIndexTest, KdTreeOnlyUpToTwoDims) {
  for (int d = 1; d <= 2; ++d) {
    EXPECT_EQ(ResolveKnnIndexStrategy(d), IndexStrategy::kTree) << d;
  }
  for (const int d : {3, 6, 10, 256}) {
    EXPECT_EQ(ResolveKnnIndexStrategy(d), IndexStrategy::kFlat) << d;
  }
}

}  // namespace
}  // namespace gbx
