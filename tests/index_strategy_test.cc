// The IndexStrategy resolution machinery: name/parse round-trips for
// all four strategies, the EffectiveDimension participation-ratio
// estimator (isotropic clouds read as ~d, embedded low-dimensional
// subspaces read as ~their dimension regardless of ambient d or
// orientation), and the kAuto tier semantics — size gates, thread
// scaling, and GB-kNN's d_eff structure gate that separates "distance
// concentration, stay flat" from "real structure, keep the tree".
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "index/index_strategy.h"

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

Matrix IsotropicCloud(int n, int d, std::uint64_t seed) {
  Pcg32 rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) m.At(i, j) = rng.NextGaussian();
  }
  return m;
}

// Points near a k-dimensional subspace of R^d, then rotated so the
// subspace is not axis-aligned — the participation ratio must still
// read ~k.
Matrix EmbeddedSubspace(int n, int d, int k, double noise,
                        std::uint64_t seed) {
  Pcg32 rng(seed);
  Matrix m(n, d, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) m.At(i, j) = rng.NextGaussian() * 2.0;
    for (int j = k; j < d; ++j) m.At(i, j) = rng.NextGaussian() * noise;
  }
  RotateFeatures(&m, &rng);
  return m;
}

TEST(EffectiveDimensionTest, IsotropicCloudReadsAmbientDimension) {
  for (int d : {2, 8, 24}) {
    const double d_eff = EffectiveDimension(IsotropicCloud(4000, d, 11 + d));
    EXPECT_GT(d_eff, 0.8 * d) << "d=" << d;
    EXPECT_LE(d_eff, 1.05 * d) << "d=" << d;
  }
}

TEST(EffectiveDimensionTest, EmbeddedSubspaceReadsIntrinsicDimension) {
  for (int d : {12, 24, 48}) {
    const double d_eff =
        EffectiveDimension(EmbeddedSubspace(4000, d, 3, 0.05, 17 + d));
    EXPECT_GT(d_eff, 1.5) << "d=" << d;
    EXPECT_LT(d_eff, 5.0) << "ambient d=" << d
                          << " must not leak into the estimate";
  }
}

TEST(EffectiveDimensionTest, DegenerateInputs) {
  // Fewer than two rows, or zero variance: fall back to the ambient d.
  EXPECT_EQ(EffectiveDimension(Matrix(0, 5)), 5.0);
  EXPECT_EQ(EffectiveDimension(Matrix(1, 5)), 5.0);
  EXPECT_EQ(EffectiveDimension(Matrix(100, 3, /*fill=*/2.5)), 3.0);
  // A single spread dimension is effectively one-dimensional.
  Matrix line(500, 4, 0.0);
  for (int i = 0; i < 500; ++i) line.At(i, 2) = i;
  EXPECT_NEAR(EffectiveDimension(line), 1.0, 1e-9);
}

TEST(ResolveRdGbgTest, ExplicitRequestsPassThrough) {
  for (IndexStrategy s : {IndexStrategy::kFlat, IndexStrategy::kTree,
                          IndexStrategy::kBallTree}) {
    EXPECT_EQ(ResolveRdGbgIndexStrategy(s, 1, 1000, 64), s);
  }
}

TEST(ResolveRdGbgTest, UnconditionalKdTiersMatchPr4) {
  // d<=2 from 4096 points at any thread count.
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 4096, 2, 64),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 4095, 2, 1),
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

TEST(ResolveCenterTest, SizeGate) {
  // Tree from 4096 balls (d<=16). The resolver takes no worker count:
  // batch prediction parallelizes over queries for every strategy, so
  // the measured crossover does not move with GBX_THREADS (a ×threads
  // bar was measured to hand kAuto a 2× loss at 4 workers; see
  // index_strategy.cc).
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 4096, 10),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 4095, 10),
            IndexStrategy::kFlat);
}

TEST(ResolveCenterTest, BallTreeTierNeedsStructure) {
  const Matrix structured = EmbeddedSubspace(8000, 24, 3, 0.05, 5);
  const Matrix isotropic = IsotropicCloud(8000, 24, 6);
  EXPECT_EQ(
      ResolveCenterIndexStrategy(IndexStrategy::kAuto, 8000, 24, &structured),
      IndexStrategy::kBallTree);
  EXPECT_EQ(
      ResolveCenterIndexStrategy(IndexStrategy::kAuto, 8000, 24, &isotropic),
      IndexStrategy::kFlat);
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 8000, 24),
            IndexStrategy::kFlat);
  // Past d=32 even structure does not rescue tree pruning.
  const Matrix deep = EmbeddedSubspace(8000, 40, 3, 0.05, 7);
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 8000, 40, &deep),
            IndexStrategy::kFlat);
  // Explicit requests pass through untouched.
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kBallTree, 1, 1000),
            IndexStrategy::kBallTree);
}

}  // namespace
}  // namespace gbx
