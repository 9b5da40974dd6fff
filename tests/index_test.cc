// KnnIndex, the exact k-nearest primitive of the static callers, against
// an inline exhaustive oracle. Dimensionalities on both sides of its
// tree/flat cutoff (ResolveKnnIndexStrategy: the DynamicKdTree at d <= 2,
// the SIMD flat scan above) run every case.
#include <algorithm>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/knn_index.h"

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

// The exhaustive oracle: every row but `exclude`, ranked by (squared
// distance, index), the first k.
std::vector<SquaredNeighbor> Exhaustive(const Matrix& pts, const double* q,
                                        int k, int exclude = -1) {
  std::vector<SquaredNeighbor> all;
  for (int i = 0; i < pts.rows(); ++i) {
    if (i == exclude) continue;
    all.push_back({SquaredDistance(q, pts.Row(i), pts.cols()), i});
  }
  std::sort(all.begin(), all.end());
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

// Same indices, same squared distances bit for bit: both structures use
// SquaredDistance's arithmetic (simd.h's bit-exactness contract).
void ExpectSame(const std::vector<SquaredNeighbor>& actual,
                const std::vector<SquaredNeighbor>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index) << "rank " << i;
    EXPECT_EQ(actual[i].dist2, expected[i].dist2) << "rank " << i;
  }
}

TEST(KnnIndexTest, KnnOnCraftedLine) {
  const Matrix pts = Matrix::FromRows({{0.0}, {1.0}, {2.0}, {10.0}});
  const KnnIndex index(&pts);
  const double q[] = {1.2};
  const std::vector<SquaredNeighbor> nns = index.KNearestSquared(q, 2);
  ASSERT_EQ(nns.size(), 2u);
  EXPECT_EQ(nns[0].index, 1);
  EXPECT_NEAR(nns[0].dist2, 0.04, 1e-12);
  EXPECT_EQ(nns[1].index, 2);
}

TEST(KnnIndexTest, KLargerThanNReturnsAll) {
  for (const int d : {1, 3}) {
    const Matrix pts = RandomPoints(2, d, 5);
    const KnnIndex index(&pts);
    const std::vector<double> q(d, 0.0);
    EXPECT_EQ(index.KNearestSquared(q.data(), 10).size(), 2u) << "d=" << d;
    EXPECT_TRUE(index.KNearestSquared(q.data(), 0).empty()) << "d=" << d;
  }
}

TEST(KnnIndexTest, HandlesDuplicatePoints) {
  for (const int d : {2, 3}) {
    Matrix pts(4, d, 1.0);
    for (int j = 0; j < d; ++j) pts.At(3, j) = 2.0;
    const KnnIndex index(&pts);
    const std::vector<double> q(d, 1.0);
    const std::vector<SquaredNeighbor> nns = index.KNearestSquared(q.data(), 3);
    ASSERT_EQ(nns.size(), 3u) << "d=" << d;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(nns[i].index, i) << "d=" << d;
      EXPECT_EQ(nns[i].dist2, 0.0) << "d=" << d;
    }
  }
}

TEST(KnnIndexTest, EmptyAndSinglePoint) {
  for (const int d : {2, 3}) {
    const std::vector<double> q(d, 0.0);
    const Matrix empty(0, d);
    const KnnIndex none(&empty);
    EXPECT_TRUE(none.KNearestSquared(q.data(), 5).empty()) << "d=" << d;
    EXPECT_TRUE(none.KNearestSquared(q.data(), 5, /*exclude=*/0).empty());

    const Matrix one = RandomPoints(1, d, 3);
    const KnnIndex index(&one);
    const std::vector<SquaredNeighbor> nns = index.KNearestSquared(q.data(), 5);
    ASSERT_EQ(nns.size(), 1u) << "d=" << d;
    EXPECT_EQ(nns[0].index, 0);
    EXPECT_TRUE(index.KNearestSquared(q.data(), 5, /*exclude=*/0).empty());
  }
}

// Property: results equal the exhaustive oracle exactly (indices and
// squared distances) across sizes and dimensionalities, with and without
// an excluded row.
class KnnIndexEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnnIndexEquivalenceTest, MatchesExhaustiveScan) {
  const auto [n, d] = GetParam();
  const Matrix pts = RandomPoints(n, d, 100 + n + d);
  const KnnIndex index(&pts);
  Pcg32 rng(n * 31 + d);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<double> q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.NextGaussian();
    const int k = 1 + static_cast<int>(rng.NextBounded(10));
    ExpectSame(index.KNearestSquared(q.data(), k),
               Exhaustive(pts, q.data(), k));
    const int exclude = static_cast<int>(rng.NextBounded(n));
    ExpectSame(index.KNearestSquared(q.data(), k, exclude),
               Exhaustive(pts, q.data(), k, exclude));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnIndexEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 5, 64, 257, 1500),
                       ::testing::Values(1, 2, 3, 8, 16)));

// Duplicates a block of rows so ties by index are exercised.
Matrix PointsWithDuplicates(int d) {
  Matrix pts = RandomPoints(400, d, 17);
  // Copy out first: AppendRow from a pointer into pts itself could
  // reallocate.
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> row(pts.Row(i), pts.Row(i) + pts.cols());
    pts.AppendRow(row.data(), pts.cols());
  }
  return pts;
}

// Queries at the stored points themselves (distance-0 hits and heavy ties
// on duplicated rows) must also agree exactly with the oracle.
TEST(KnnIndexEquivalenceTest, MatchesExhaustiveOnDataPointQueries) {
  for (const int d : {2, 3}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Matrix pts = PointsWithDuplicates(d);
    const KnnIndex index(&pts);
    for (int i = 0; i < pts.rows(); i += 7) {
      ExpectSame(index.KNearestSquared(pts.Row(i), 12),
                 Exhaustive(pts, pts.Row(i), 12));
    }
  }
}

// Excluding a row drops that row only: a duplicate of it at distance 0
// stays the nearest neighbor, whichever copy is excluded.
TEST(KnnIndexTest, ExcludeDropsOnlyThatRow) {
  for (const int d : {2, 3}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Matrix pts = PointsWithDuplicates(d);  // row 400 + i copies row i
    const KnnIndex index(&pts);
    for (const int i : {0, 7, 49}) {
      const int copy = 400 + i;
      const std::vector<SquaredNeighbor> self_excluded =
          index.KNearestSquared(pts.Row(i), 3, /*exclude=*/i);
      ASSERT_EQ(self_excluded.size(), 3u);
      EXPECT_EQ(self_excluded[0].index, copy);
      EXPECT_EQ(self_excluded[0].dist2, 0.0);
      ExpectSame(self_excluded, Exhaustive(pts, pts.Row(i), 3, i));

      const std::vector<SquaredNeighbor> copy_excluded =
          index.KNearestSquared(pts.Row(i), 3, /*exclude=*/copy);
      ASSERT_EQ(copy_excluded.size(), 3u);
      EXPECT_EQ(copy_excluded[0].index, i);
      ExpectSame(copy_excluded, Exhaustive(pts, pts.Row(i), 3, copy));

      // -1 excludes nothing: the two copies lead, by index.
      const std::vector<SquaredNeighbor> all =
          index.KNearestSquared(pts.Row(i), 2, /*exclude=*/-1);
      ASSERT_EQ(all.size(), 2u);
      EXPECT_EQ(all[0].index, i);
      EXPECT_EQ(all[1].index, copy);
    }
  }
}

TEST(KnnIndexTest, SelfExcludedQueryNeverReturnsSelf) {
  for (const int d : {2, 8}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Matrix pts = RandomPoints(64, d, 13);
    const KnnIndex index(&pts);
    for (int i = 0; i < pts.rows(); ++i) {
      ExpectSame(index.KNearestSquared(pts.Row(i), 5, /*exclude=*/i),
                 Exhaustive(pts, pts.Row(i), 5, i));
    }
  }
}

// Regression for the oversized-k guard (the dynamic trees clamp the same
// way, see index_dynamic_test.cc): k beyond the eligible row count
// degrades to "all eligible rows, in order", never an assertion, with or
// without an excluded row.
TEST(KnnIndexTest, OversizedKReturnsAllPoints) {
  for (const int d : {2, 3}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Matrix pts = RandomPoints(37, d, 23);
    const KnnIndex index(&pts);
    const double q[] = {0.1, -0.4, 0.7};
    for (int k : {36, 37, 38, 100, 1 << 20}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      ExpectSame(index.KNearestSquared(q, k), Exhaustive(pts, q, k));
      const std::vector<SquaredNeighbor> excluded =
          index.KNearestSquared(q, k, /*exclude=*/5);
      EXPECT_EQ(excluded.size(), std::min<std::size_t>(k, 36));
      ExpectSame(excluded, Exhaustive(pts, q, k, 5));
    }
  }
}

TEST(KnnIndexTest, SelfQueryReturnsSelfFirst) {
  for (const int d : {2, 4}) {
    const Matrix pts = RandomPoints(64, d, 11);
    const KnnIndex index(&pts);
    for (int i = 0; i < pts.rows(); ++i) {
      const std::vector<SquaredNeighbor> nns =
          index.KNearestSquared(pts.Row(i), 1);
      ASSERT_EQ(nns.size(), 1u);
      EXPECT_EQ(nns[0].index, i) << "d=" << d;
      EXPECT_EQ(nns[0].dist2, 0.0);
    }
  }
}

}  // namespace
}  // namespace gbx
