#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/brute_force.h"
#include "index/kd_tree.h"

namespace gbx {
namespace {

Matrix RandomPoints(int n, int d, std::uint64_t seed) {
  Pcg32 rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) m.At(i, j) = rng.NextGaussian();
  }
  return m;
}

TEST(BruteForceTest, KnnOnCraftedLine) {
  const Matrix pts = Matrix::FromRows({{0.0}, {1.0}, {2.0}, {10.0}});
  BruteForceIndex index(&pts);
  const double q[] = {1.2};
  const std::vector<Neighbor> nns = index.KNearest(q, 2);
  ASSERT_EQ(nns.size(), 2u);
  EXPECT_EQ(nns[0].index, 1);
  EXPECT_NEAR(nns[0].distance, 0.2, 1e-12);
  EXPECT_EQ(nns[1].index, 2);
}

TEST(BruteForceTest, KLargerThanNReturnsAll) {
  const Matrix pts = Matrix::FromRows({{0.0}, {1.0}});
  BruteForceIndex index(&pts);
  const double q[] = {0.0};
  EXPECT_EQ(index.KNearest(q, 10).size(), 2u);
  EXPECT_TRUE(index.KNearest(q, 0).empty());
}

TEST(KdTreeTest, HandlesDuplicatePoints) {
  const Matrix pts =
      Matrix::FromRows({{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}});
  KdTree tree(&pts, /*leaf_size=*/1);
  const double q[] = {1.0, 1.0};
  const std::vector<Neighbor> nns = tree.KNearest(q, 3);
  ASSERT_EQ(nns.size(), 3u);
  EXPECT_EQ(nns[0].index, 0);
  EXPECT_EQ(nns[1].index, 1);
  EXPECT_EQ(nns[2].index, 2);
}

TEST(KdTreeTest, EmptyAndSinglePoint) {
  const Matrix empty(0, 3);
  KdTree tree(&empty);
  const double q[] = {0.0, 0.0, 0.0};
  EXPECT_TRUE(tree.KNearest(q, 5).empty());

  const Matrix one = Matrix::FromRows({{1.0, 2.0, 3.0}});
  KdTree tree1(&one);
  const std::vector<Neighbor> nns = tree1.KNearest(q, 5);
  ASSERT_EQ(nns.size(), 1u);
  EXPECT_EQ(nns[0].index, 0);
}

// Property: KD-tree results must equal brute force exactly (indices and
// distances) across sizes, dimensionalities and leaf sizes.
class KdTreeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KdTreeEquivalenceTest, MatchesBruteForceKnn) {
  const auto [n, d, leaf_size] = GetParam();
  const Matrix pts = RandomPoints(n, d, 100 + n + d);
  BruteForceIndex brute(&pts);
  KdTree tree(&pts, leaf_size);
  Pcg32 rng(n * 31 + d);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.NextGaussian();
    const int k = 1 + static_cast<int>(rng.NextBounded(10));
    const std::vector<Neighbor> expected = brute.KNearest(q.data(), k);
    const std::vector<Neighbor> actual = tree.KNearest(q.data(), k);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].index, expected[i].index) << "trial " << trial;
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 5, 64, 257, 1500),
                       ::testing::Values(1, 2, 8, 16),
                       ::testing::Values(1, 16, 64)));

// Queries at the stored points themselves (distance-0 hits and heavy ties
// on duplicated rows) must also agree exactly with brute force.
TEST(KdTreeEquivalenceTest, MatchesBruteForceOnDataPointQueries) {
  Matrix pts = RandomPoints(400, 3, 17);
  // Duplicate a block of rows so ties-by-index are exercised. (Copy out
  // first: AppendRow from a pointer into pts itself could reallocate.)
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> row(pts.Row(i), pts.Row(i) + pts.cols());
    pts.AppendRow(row.data(), pts.cols());
  }
  BruteForceIndex brute(&pts);
  KdTree tree(&pts, /*leaf_size=*/8);
  for (int i = 0; i < pts.rows(); i += 7) {
    const std::vector<Neighbor> expected = brute.KNearest(pts.Row(i), 12);
    const std::vector<Neighbor> actual = tree.KNearest(pts.Row(i), 12);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      ASSERT_EQ(actual[j].index, expected[j].index) << "query " << i;
      ASSERT_NEAR(actual[j].distance, expected[j].distance, 1e-12);
    }
  }
}

// Regression for the oversized-k guard (the dynamic trees' KNearestSquared
// clamps the same way, see index_dynamic_test.cc): k
// beyond the stored point count must degrade to "all points, in order" —
// never an assertion — including on deep single-point-leaf trees and on
// the empty tree.
TEST(KdTreeTest, OversizedKReturnsAllPoints) {
  const Matrix pts = RandomPoints(37, 3, 23);
  BruteForceIndex brute(&pts);
  KdTree tree(&pts, /*leaf_size=*/1);
  const double q[] = {0.1, -0.4, 0.7};
  const std::vector<Neighbor> expected = brute.KNearest(q, 37);
  for (int k : {37, 38, 100, 1 << 20}) {
    const std::vector<Neighbor> all = tree.KNearest(q, k);
    ASSERT_EQ(all.size(), 37u) << "k=" << k;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(all[i].index, expected[i].index) << "k=" << k;
    }
  }

  const Matrix empty(0, 3);
  KdTree none(&empty);
  EXPECT_TRUE(none.KNearest(q, 1 << 20).empty());
}

TEST(KdTreeTest, SelfQueryReturnsSelfFirst) {
  const Matrix pts = RandomPoints(64, 4, 11);
  KdTree tree(&pts);
  for (int i = 0; i < pts.rows(); ++i) {
    const std::vector<Neighbor> nns = tree.KNearest(pts.Row(i), 1);
    ASSERT_EQ(nns.size(), 1u);
    EXPECT_EQ(nns[0].index, i);
    EXPECT_NEAR(nns[0].distance, 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace gbx
