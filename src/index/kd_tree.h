// Static KD-tree over a point matrix: median-split build (O(n log n)),
// branch-and-bound k-NN queries. Exact — property-tested to
// agree with BruteForceIndex — and much faster for the low/medium-
// dimensional datasets where kNN classification dominates experiment
// time.
#ifndef GBX_INDEX_KD_TREE_H_
#define GBX_INDEX_KD_TREE_H_

#include <vector>

#include "index/neighbor_index.h"

namespace gbx {

class KdTree {
 public:
  /// `points` must outlive the tree. `leaf_size` is the maximum number of
  /// points in a leaf bucket.
  explicit KdTree(const Matrix* points, int leaf_size = 16);

  /// k larger than the number of stored points returns all points (k is
  /// clamped, never asserted on), matching BruteForceIndex and the
  /// dynamic trees. Ranked by (squared distance, index), Euclidean
  /// distances in the result.
  std::vector<Neighbor> KNearest(const double* query, int k) const;

  int size() const { return points_->rows(); }

 private:
  struct Node {
    int left = -1;        // child node ids; -1 for leaf
    int right = -1;
    int split_dim = -1;
    double split_value = 0.0;
    int begin = 0;        // leaf: range into order_
    int end = 0;
  };

  int Build(int begin, int end);

  void SearchKnn(int node_id, const double* query, int k,
                 std::vector<Neighbor>* heap) const;

  const Matrix* points_;
  int leaf_size_;
  std::vector<int> order_;   // permutation of point ids, leaves own ranges
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace gbx

#endif  // GBX_INDEX_KD_TREE_H_
