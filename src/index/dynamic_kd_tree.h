// The dynamic (deletion-capable) search trees: one tombstoned tree over a
// node-bound policy, instantiated twice —
//
//  - DynamicKdTree: nodes bounded by the axis-aligned box of their
//    points (BoxBound);
//  - BallTree: nodes bounded by a covering metric ball, centroid +
//    radius (BallBound).
//
// Everything but the bound is shared. Remove(i) tombstones a point in
// O(depth) (per-node live counters let queries prune dead subtrees), and
// the tree rebuilds itself over the survivors once more than half of the
// indexed points are tombstoned, so a full build-then-drain cycle —
// RD-GBG's granulation loop, which queries nearest neighbors from a
// *shrinking* undivided set — costs O(n log n) amortized instead of a
// fresh O(n) scan per candidate. Both trees split at the median of the
// widest-spread dimension; bounds are computed over the live-at-build
// points and only ever overestimate after removals, so pruning stays
// valid. Two queries:
//
//  - KNearestSquared: squared distances ordered by (dist2, index), the
//    exact total order RD-GBG's flat scan consumes. sqrt can merge
//    distinct squared distances into ties, so squared-space consumers
//    get squared-space results rather than a lossy round trip.
//  - KNearestSurface (weighted trees): GB-kNN's ball-surface score.
//
// Exact under floating point, bit-identical to an exhaustive scan with
// the same arithmetic (tests/dynamic_tree_battery.h checks both trees
// against a live-filtered brute-force oracle):
//
//  - The box distance dominates each member's SquaredDistance term by
//    term in the same summation order (BoxMinSquaredDistance), so it is
//    a certain lower bound on every member's *computed* squared
//    distance, and sqrt and subtraction are monotone. The squared gap
//    to the split plane is at most the far child's box term in the
//    split dimension, so it is such a bound too: on a tree without
//    tombstones (one never removed from, as KnnIndex keeps, or one just
//    rebuilt) KNearestSquared tests only it and skips the liveness
//    checks, the classic KD-tree walk.
//  - The triangle bound dist(q, centroid) − radius is computed from fp
//    values with relative error O(d · eps) and could exceed a member's
//    computed distance by a few ulps, so it is deflated by kFpSlack =
//    1e-9: orders of magnitude above the true error for any
//    dimensionality this library sees (<= ~(d+2)·2⁻⁵³ ≈ 1e-13 even at
//    d = 1e3) and orders of magnitude below any gap that affects
//    pruning power. Squaring it deflates once more.
//
// Pruning is strict ("bound > worst retained"), so an equal bound still
// visits and index ties survive. Box pruning (min distance to the box,
// not just to the split plane) is meant to keep exact k-NN competitive
// at d ~ 8-16; axis boxes collapse under distance concentration, where
// a covering ball follows the points' actual spread and keeps pruning.
// On the measured rows the fused flat scan still wins past d = 4, so
// IndexStrategy's kAuto picks only the KD-tree, at low d, and never the
// ball tree (see index_strategy.cc). On a tree without tombstones the plane-only walk
// measured faster from d = 2 to 256 (BENCH_pr22.json, tree_walk), so
// it runs there: every KnnIndex tree query and 0.02-14 % of RD-GBG's.
//
// Queries never mutate the tree and are safe to issue concurrently;
// Remove must be externally serialized against queries.
#ifndef GBX_INDEX_DYNAMIC_KD_TREE_H_
#define GBX_INDEX_DYNAMIC_KD_TREE_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "index/neighbor_index.h"

namespace gbx {

/// Node bound of the KD-tree: the bounding box of the node's points.
/// KNearestSquared descends the split plane's near side first,
/// KNearestSurface the child with the lower bound.
class BoxBound {
 public:
  static constexpr bool kSplitPlaneOrder = true;

  void Clear() { boxes_.clear(); }
  void Reserve(std::size_t nodes, int d) { boxes_.reserve(nodes * 2 * d); }
  /// Appends the next node's bound: the per-dimension extent [lo, hi]
  /// of the `count` rows `ids`.
  void Append(const Matrix& points, const int* ids, int count,
              const double* lo, const double* hi);

  /// Lower bound on the computed squared distance to every member.
  double MinDist2(int node, const double* query, int d) const {
    const double* lo = &boxes_[static_cast<std::size_t>(node) * 2 * d];
    return BoxMinSquaredDistance(lo, lo + d, query, d);
  }
  /// Lower bound on the computed distance to every member.
  double MinDist(int node, const double* query, int d) const {
    return std::sqrt(MinDist2(node, query, d));
  }

 private:
  // node_id * 2d: [lo_0..lo_{d-1} hi_0..hi_{d-1}].
  std::vector<double> boxes_;
};

/// Node bound of the ball-tree: the mean of the node's points and the
/// largest computed distance from it to a member. Every query descends
/// the child with the lower bound first.
class BallBound {
 public:
  static constexpr bool kSplitPlaneOrder = false;

  void Clear() {
    centroids_.clear();
    radii_.clear();
  }
  void Reserve(std::size_t nodes, int d) {
    centroids_.reserve(nodes * d);
    radii_.reserve(nodes);
  }
  void Append(const Matrix& points, const int* ids, int count,
              const double* lo, const double* hi);

  /// Deflated triangle bound: a certain lower bound on the computed
  /// distance to every member (0 when the query is inside the ball).
  double MinDist(int node, const double* query, int d) const;
  /// A MinDist squared and deflated once more, safe to compare against
  /// computed squared distances.
  static double SquaredLowerBound(double min_dist) {
    // Squaring re-introduces up to ~4 ulps of overshoot relative to the
    // computed squared distances; one more deflation absorbs it.
    return min_dist * min_dist * (1.0 - kFpSlack);
  }

 private:
  static constexpr double kFpSlack = 1e-9;

  std::vector<double> centroids_;  // node_id * d
  std::vector<double> radii_;      // node_id
};

template <typename Bound>
class TombstonedTree {
 public:
  /// `points` must outlive the tree and must not be mutated while the
  /// tree is live. All rows start alive. `leaf_size` is the maximum
  /// number of points in a leaf bucket.
  explicit TombstonedTree(const Matrix* points, int leaf_size = 16)
      : TombstonedTree(points, nullptr, leaf_size) {}

  /// As above, plus a non-negative weight per point (one per row,
  /// `point_weights` must outlive the tree), enabling KNearestSurface.
  /// GB-kNN passes ball radii so a query ranks balls by surface
  /// distance.
  TombstonedTree(const Matrix* points, const double* point_weights,
                 int leaf_size = 16);

  /// Tombstones point `i` (must be alive). Triggers an automatic rebuild
  /// over the survivors when more than half of the currently indexed
  /// points are tombstoned.
  void Remove(int i);

  bool alive(int i) const;

  /// Number of live (non-tombstoned) points.
  int size() const { return live_; }
  /// Points in the current tree structure (live + tombstones); resets to
  /// size() on rebuild.
  int indexed_points() const { return built_size_; }
  /// Tombstones in the current structure (cleared by rebuild).
  int tombstones() const { return tombstones_; }
  /// Automatic rebuilds performed so far.
  int rebuilds() const { return rebuilds_; }

  /// The k nearest live points by (squared distance, index), excluding
  /// point id `exclude` (pass -1 to exclude nothing). k larger than the
  /// number of eligible points returns all of them.
  std::vector<SquaredNeighbor> KNearestSquared(const double* query, int k,
                                               int exclude = -1) const;

  /// Requires weights (see the weighted constructor): the k live points
  /// minimizing (score, index) where
  ///     score = dist - w_i   if dist <= w_i   (query inside the ball)
  ///           = dist         otherwise,
  /// i.e. GB-kNN's granular-ball surface distance when w is the ball
  /// radius. Neighbor::distance carries the score. Subtrees are pruned
  /// with the node's distance bound minus its largest weight.
  std::vector<Neighbor> KNearestSurface(const double* query, int k) const;

 private:
  struct Node {
    int left = -1;  // child node ids; -1 for leaf
    int right = -1;
    int parent = -1;
    int split_dim = -1;
    double split_value = 0.0;
    int begin = 0;  // leaf: range into order_
    int end = 0;
    int live = 0;  // live points in this subtree; 0 prunes it entirely
    // Largest weight of a live-at-build point in the subtree (0 without
    // weights). Stays an overestimate after removals — still a valid
    // bound.
    double max_weight = 0.0;
  };

  int Build(int begin, int end, int parent);
  void Rebuild();

  /// Calls visit(child, bound) for the live children of inner node
  /// `node`, the one with the lower `lower_bound(child)` first.
  template <typename LowerBound, typename Visit>
  void ForLiveChildrenLowerFirst(const Node& node, LowerBound lower_bound,
                                 Visit visit) const;

  template <bool kNoTombstones>
  void SearchKnnSquared(int node_id, const double* query, int k, int exclude,
                        std::vector<SquaredNeighbor>* heap) const;
  void SearchSurface(int node_id, const double* query, int k,
                     std::vector<Neighbor>* heap) const;

  const Matrix* points_;
  const double* weights_ = nullptr;  // per-point, for KNearestSurface
  int leaf_size_;
  std::vector<char> alive_;
  std::vector<int> order_;       // live-at-build point ids, leaves own ranges
  std::vector<int> point_leaf_;  // point id -> leaf node id (-1 if removed
                                 // before the last rebuild)
  std::vector<Node> nodes_;
  Bound bound_;                 // per-node bounds, indexed by node id
  std::vector<double> extent_;  // Build scratch: one range's [lo, hi]
  int root_ = -1;
  int live_ = 0;
  int built_size_ = 0;
  int tombstones_ = 0;
  int rebuilds_ = 0;
};

extern template class TombstonedTree<BoxBound>;
extern template class TombstonedTree<BallBound>;

using DynamicKdTree = TombstonedTree<BoxBound>;
using BallTree = TombstonedTree<BallBound>;

}  // namespace gbx

#endif  // GBX_INDEX_DYNAMIC_KD_TREE_H_
