// Property battery for the dynamic trees, shared by both instantiations
// of the one tombstoned tree: index_dynamic_test.cc runs it for
// DynamicKdTree (box bound), ball_tree_test.cc for BallTree
// (covering-ball bound). Randomized interleavings of Remove and both
// query families are cross-checked against a live-filtered brute-force
// oracle over an n × d × leaf_size sweep that reaches the moderate
// dimensionalities (d up to 24) the ball-tree exists for, plus the
// adversarial corners: duplicate rows, every point removed, the
// amortized-rebuild boundary at exactly the 50% tombstone threshold, the
// oversized-k guard ("more neighbors than live points" returns all live
// points, never asserts) and the weighted surface query. Equality is
// exact double equality everywhere: neither bound may prune a candidate
// the exhaustive scan keeps.
//
// Include from exactly one test file per tree and instantiate both
// suites there:
//   INSTANTIATE_TYPED_TEST_SUITE_P(Name, DynamicTreeTest, Tree);
//   INSTANTIATE_TYPED_TEST_SUITE_P(Name, DynamicTreeDeathTest, Tree);
#ifndef GBX_TESTS_DYNAMIC_TREE_BATTERY_H_
#define GBX_TESTS_DYNAMIC_TREE_BATTERY_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/dynamic_kd_tree.h"

namespace gbx {

inline Matrix RandomPoints(int n, int d, std::uint64_t seed) {
  Pcg32 rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) m.At(i, j) = rng.NextGaussian();
  }
  return m;
}

// The oracle filters by liveness and realizes the exact total order
// KNearestSquared promises: (squared distance, index).
inline std::vector<SquaredNeighbor> OracleKnnSquared(
    const Matrix& pts, const std::vector<char>& alive, const double* q, int k,
    int exclude = -1) {
  std::vector<SquaredNeighbor> all;
  for (int i = 0; i < pts.rows(); ++i) {
    if (!alive[i] || i == exclude) continue;
    all.push_back(
        SquaredNeighbor{SquaredDistance(q, pts.Row(i), pts.cols()), i});
  }
  std::sort(all.begin(), all.end());
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

inline void ExpectNeighborsEqual(const std::vector<Neighbor>& actual,
                                 const std::vector<Neighbor>& expected,
                                 const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].index, expected[i].index) << what << " at " << i;
    // Identical arithmetic on identical inputs: exact, not approximate.
    ASSERT_EQ(actual[i].distance, expected[i].distance) << what << " at " << i;
  }
}

inline void ExpectSquaredEqual(const std::vector<SquaredNeighbor>& actual,
                               const std::vector<SquaredNeighbor>& expected,
                               const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].index, expected[i].index) << what << " at " << i;
    ASSERT_EQ(actual[i].dist2, expected[i].dist2) << what << " at " << i;
  }
}

template <typename Tree>
class DynamicTreeTest : public ::testing::Test {};
TYPED_TEST_SUITE_P(DynamicTreeTest);

template <typename Tree>
class DynamicTreeDeathTest : public ::testing::Test {};
TYPED_TEST_SUITE_P(DynamicTreeDeathTest);

// filtered oracle at every point of the drain, through every automatic
// rebuild, down to the empty tree.
template <typename Tree>
void DrainAgainstOracle(int n, int d, int leaf_size) {
  const Matrix pts = RandomPoints(n, d, 900 + n * 7 + d);
  Tree tree(&pts, leaf_size);
  std::vector<char> alive(n, 1);
  std::vector<int> live_ids(n);
  for (int i = 0; i < n; ++i) live_ids[i] = i;
  Pcg32 rng(17 * n + d + leaf_size);

  const auto check = [&](const char* when) {
    ASSERT_EQ(tree.size(), static_cast<int>(live_ids.size())) << when;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> q(d);
      for (int j = 0; j < d; ++j) q[j] = rng.NextGaussian();
      // Query at a stored (sometimes removed) point half the time:
      // distance-0 hits and tombstone positions are the hard cases.
      if (n > 0 && trial % 2 == 1) {
        const int at = static_cast<int>(rng.NextBounded(n));
        for (int j = 0; j < d; ++j) q[j] = pts.At(at, j);
      }
      const int k = 1 + static_cast<int>(rng.NextBounded(12));
      const int exclude =
          trial % 2 == 0 ? -1 : static_cast<int>(rng.NextBounded(n));
      ExpectSquaredEqual(
          tree.KNearestSquared(q.data(), k, exclude),
          OracleKnnSquared(pts, alive, q.data(), k, exclude), when);
    }
  };

  check("before removals");
  while (!live_ids.empty()) {
    // Remove a random batch, then re-check.
    const int batch = 1 + static_cast<int>(rng.NextBounded(
                              static_cast<std::uint32_t>(
                                  std::max<std::size_t>(live_ids.size() / 6,
                                                        1))));
    for (int b = 0; b < batch && !live_ids.empty(); ++b) {
      const std::size_t pick = rng.NextBounded(
          static_cast<std::uint32_t>(live_ids.size()));
      const int id = live_ids[pick];
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      ASSERT_TRUE(tree.alive(id));
      tree.Remove(id);
      alive[id] = 0;
      ASSERT_FALSE(tree.alive(id));
    }
    check("after removal batch");
  }
  // Fully drained: the query must come back empty.
  ASSERT_EQ(tree.size(), 0);
  std::vector<double> q(d, 0.0);
  EXPECT_TRUE(tree.KNearestSquared(q.data(), 5).empty());
}

TYPED_TEST_P(DynamicTreeTest, AgreesWithOracleUnderInterleavedRemovals) {
  for (const int n : {1, 5, 64, 257, 800}) {
    for (const int d : {1, 2, 8, 16, 24}) {
      for (const int leaf_size : {1, 16, 64}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d) +
                     " leaf_size=" + std::to_string(leaf_size));
        DrainAgainstOracle<TypeParam>(n, d, leaf_size);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Duplicate rows stress the index tie-breaks and the zero-spread leaf
// path; removing individual duplicates must surface the remaining ones
// in index order.
TYPED_TEST_P(DynamicTreeTest, DuplicateRowsRemoveOneAtATime) {
  Matrix pts(12, 2);
  for (int i = 0; i < 12; ++i) {
    pts.At(i, 0) = i < 8 ? 1.0 : 2.0;  // ids 0..7 identical, 8..11 identical
    pts.At(i, 1) = i < 8 ? -3.0 : 4.0;
  }
  TypeParam tree(&pts, /*leaf_size=*/2);
  const double q[] = {1.0, -3.0};

  std::vector<char> alive(12, 1);
  for (int removed = 0; removed < 8; ++removed) {
    const std::vector<SquaredNeighbor> nns = tree.KNearestSquared(q, 3);
    ExpectSquaredEqual(nns, OracleKnnSquared(pts, alive, q, 3), "duplicates");
    // The nearest duplicates must come out in ascending index order.
    ASSERT_GE(nns.size(), 1u);
    EXPECT_EQ(nns[0].index, removed);
    EXPECT_EQ(nns[0].dist2, 0.0);
    tree.Remove(removed);
    alive[removed] = 0;
  }
  // All the distance-0 duplicates are gone; the far block remains.
  const std::vector<SquaredNeighbor> rest = tree.KNearestSquared(q, 100);
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0].index, 8);
}

// The amortized rebuild must fire exactly when tombstones first exceed
// half of the indexed points — not at exactly 50% — and must reset the
// tombstone accounting to the survivors.
TYPED_TEST_P(DynamicTreeTest, RebuildBoundaryAtExactlyHalf) {
  const Matrix pts = RandomPoints(8, 3, 42);
  TypeParam tree(&pts, /*leaf_size=*/2);
  ASSERT_EQ(tree.indexed_points(), 8);

  for (int i = 0; i < 4; ++i) tree.Remove(i);
  // Exactly 50% tombstoned: still the original structure.
  EXPECT_EQ(tree.rebuilds(), 0);
  EXPECT_EQ(tree.tombstones(), 4);
  EXPECT_EQ(tree.indexed_points(), 8);
  EXPECT_EQ(tree.size(), 4);

  tree.Remove(4);
  // One past the boundary: compacted to the 3 survivors.
  EXPECT_EQ(tree.rebuilds(), 1);
  EXPECT_EQ(tree.tombstones(), 0);
  EXPECT_EQ(tree.indexed_points(), 3);
  EXPECT_EQ(tree.size(), 3);

  // The rebuilt tree still answers exactly.
  std::vector<char> alive(8, 0);
  alive[5] = alive[6] = alive[7] = 1;
  const double q[] = {0.0, 0.0, 0.0};
  ExpectSquaredEqual(tree.KNearestSquared(q, 8),
                     OracleKnnSquared(pts, alive, q, 8), "post-rebuild");

  // Draining the survivors cascades through smaller and smaller rebuilds
  // down to an empty (but queryable) tree.
  tree.Remove(5);
  tree.Remove(6);
  tree.Remove(7);
  EXPECT_EQ(tree.size(), 0);
  EXPECT_TRUE(tree.KNearestSquared(q, 3).empty());
}

// k beyond the live count degrades to "all live points", in order — the
// guard KnnIndex shares (see index_test.cc).
TYPED_TEST_P(DynamicTreeTest, OversizedKReturnsAllLivePoints) {
  const Matrix pts = RandomPoints(10, 2, 7);
  TypeParam tree(&pts, /*leaf_size=*/4);
  const double q[] = {0.3, -0.1};

  ASSERT_EQ(tree.KNearestSquared(q, 1000).size(), 10u);
  for (int i = 0; i < 7; ++i) tree.Remove(i);
  const std::vector<SquaredNeighbor> live = tree.KNearestSquared(q, 1000);
  ASSERT_EQ(live.size(), 3u);
  std::vector<char> alive(10, 0);
  alive[7] = alive[8] = alive[9] = 1;
  ExpectSquaredEqual(live, OracleKnnSquared(pts, alive, q, 1000),
                     "oversized k");

  // The clamp counts the exclusion too.
  EXPECT_EQ(tree.KNearestSquared(q, 1000, /*exclude=*/8).size(), 2u);
  EXPECT_EQ(tree.KNearestSquared(q, 1000, /*exclude=*/0).size(), 3u)
      << "excluding an already-removed point must not shrink the result";
  EXPECT_TRUE(tree.KNearestSquared(q, 0).empty());
}

// The weighted surface query (GB-kNN's ranking: score = dist - w inside
// the ball, dist outside) must match the exhaustive scan exactly through
// removals and rebuilds, including zero weights, oversized weights that
// swallow the whole cloud, and duplicate centers. Two families of point
// sets: d = 1 + n % 5 and d = 2 + n % 7.
TYPED_TEST_P(DynamicTreeTest, SurfaceQueryAgreesWithOracleUnderRemovals) {
  for (const auto& [d_base, d_mod, pts_seed, rng_seed] :
       {std::tuple{1, 5, 3000, 31}, std::tuple{2, 7, 5200, 43}}) {
    for (const int n : {1, 7, 120, 600}) {
      const int d = d_base + n % d_mod;
      SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d));
      Matrix pts = RandomPoints(n, d, pts_seed + n);
      // A block of duplicate rows keeps the tie-breaks honest.
      for (int i = 0; i < std::min(n, 10); ++i) {
        for (int j = 0; j < d; ++j) pts.At(n - 1 - i, j) = pts.At(i, j);
      }
      Pcg32 rng(rng_seed + n);
      std::vector<double> weights(n);
      for (int i = 0; i < n; ++i) {
        const int kind = static_cast<int>(rng.NextBounded(4));
        weights[i] = kind == 0   ? 0.0                       // orphan ball
                     : kind == 1 ? 10.0 + rng.NextDouble()   // swallows all
                                 : rng.NextDouble() * 1.5;   // typical
      }
      TypeParam tree(&pts, weights.data(), /*leaf_size=*/4);
      std::vector<char> alive(n, 1);

      const auto oracle = [&](const double* q, int k) {
        std::vector<Neighbor> all;
        for (int i = 0; i < n; ++i) {
          if (!alive[i]) continue;
          const double dist = std::sqrt(SquaredDistance(q, pts.Row(i), d));
          all.push_back(
              Neighbor{i, dist <= weights[i] ? dist - weights[i] : dist});
        }
        std::sort(all.begin(), all.end());
        if (static_cast<int>(all.size()) > k) all.resize(k);
        return all;
      };

      int live = n;
      while (live > 0) {
        for (int trial = 0; trial < 3; ++trial) {
          std::vector<double> q(d);
          for (int j = 0; j < d; ++j) q[j] = rng.NextGaussian();
          const int k = 1 + static_cast<int>(rng.NextBounded(8));
          ExpectNeighborsEqual(tree.KNearestSurface(q.data(), k),
                               oracle(q.data(), k), "surface");
          if (::testing::Test::HasFatalFailure()) return;
        }
        // Remove a random live point and go again.
        int id;
        do {
          id = static_cast<int>(rng.NextBounded(n));
        } while (!alive[id]);
        tree.Remove(id);
        alive[id] = 0;
        --live;
      }
      EXPECT_TRUE(tree.KNearestSurface(pts.Row(0), 5).empty());
    }
  }
}

TYPED_TEST_P(DynamicTreeTest, EmptyMatrix) {
  const Matrix empty(0, 3);
  TypeParam tree(&empty);
  const double q[] = {0.0, 0.0, 0.0};
  EXPECT_EQ(tree.size(), 0);
  EXPECT_TRUE(tree.KNearestSquared(q, 5).empty());
}

// Without weights the surface query is a contract violation.
TYPED_TEST_P(DynamicTreeDeathTest, SurfaceQueryWithoutWeightsAsserts) {
  const Matrix pts = RandomPoints(4, 2, 5);
  TypeParam tree(&pts);
  EXPECT_DEATH(tree.KNearestSurface(pts.Row(0), 1), "requires point weights");
}

// Removing a removed point is a contract violation, not UB.
TYPED_TEST_P(DynamicTreeDeathTest, DoubleRemoveAsserts) {
  const Matrix pts = RandomPoints(4, 2, 3);
  TypeParam tree(&pts);
  tree.Remove(2);
  EXPECT_DEATH(tree.Remove(2), "already removed");
}


REGISTER_TYPED_TEST_SUITE_P(DynamicTreeTest,
                            AgreesWithOracleUnderInterleavedRemovals,
                            DuplicateRowsRemoveOneAtATime,
                            RebuildBoundaryAtExactlyHalf,
                            OversizedKReturnsAllLivePoints,
                            SurfaceQueryAgreesWithOracleUnderRemovals,
                            EmptyMatrix);
REGISTER_TYPED_TEST_SUITE_P(DynamicTreeDeathTest,
                            SurfaceQueryWithoutWeightsAsserts,
                            DoubleRemoveAsserts);

}  // namespace gbx

#endif  // GBX_TESTS_DYNAMIC_TREE_BATTERY_H_
