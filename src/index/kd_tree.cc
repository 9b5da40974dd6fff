#include "index/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gbx {

KdTree::KdTree(const Matrix* points, int leaf_size)
    : points_(points), leaf_size_(leaf_size) {
  GBX_CHECK(points != nullptr);
  GBX_CHECK_GE(leaf_size, 1);
  order_.resize(points_->rows());
  for (int i = 0; i < points_->rows(); ++i) order_[i] = i;
  if (!order_.empty()) {
    nodes_.reserve(2 * order_.size() / leaf_size_ + 4);
    root_ = Build(0, static_cast<int>(order_.size()));
  }
}

int KdTree::Build(int begin, int end) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  if (end - begin <= leaf_size_) {
    nodes_[node_id].begin = begin;
    nodes_[node_id].end = end;
    return node_id;
  }

  // Pick the dimension with the largest spread over this range.
  const int d = points_->cols();
  int best_dim = 0;
  double best_spread = -1.0;
  for (int j = 0; j < d; ++j) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (int i = begin; i < end; ++i) {
      const double v = points_->At(order_[i], j);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = j;
    }
  }
  if (best_spread <= 0.0) {
    // All points identical in every dimension: keep as one leaf.
    nodes_[node_id].begin = begin;
    nodes_[node_id].end = end;
    return node_id;
  }

  const int mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end, [&](int a, int b) {
                     const double va = points_->At(a, best_dim);
                     const double vb = points_->At(b, best_dim);
                     if (va != vb) return va < vb;
                     return a < b;
                   });
  nodes_[node_id].split_dim = best_dim;
  nodes_[node_id].split_value = points_->At(order_[mid], best_dim);
  const int left = Build(begin, mid);
  const int right = Build(mid, end);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

namespace {
bool WorseNeighbor(const Neighbor& a, const Neighbor& b) { return a < b; }
}  // namespace

void KdTree::SearchKnn(int node_id, const double* query, int k,
                       std::vector<Neighbor>* heap) const {
  const Node& node = nodes_[node_id];
  const int d = points_->cols();
  if (node.split_dim < 0) {
    for (int i = node.begin; i < node.end; ++i) {
      const int idx = order_[i];
      const double d2 = SquaredDistance(query, points_->Row(idx), d);
      OfferToBoundedHeap(heap, Neighbor{idx, d2}, k);
    }
    return;
  }
  const double diff = query[node.split_dim] - node.split_value;
  const int near = diff <= 0.0 ? node.left : node.right;
  const int far = diff <= 0.0 ? node.right : node.left;
  SearchKnn(near, query, k, heap);
  // Visit the far side only if the splitting plane could hide a better
  // candidate.
  const double plane_d2 = diff * diff;
  if (static_cast<int>(heap->size()) < k || plane_d2 <= heap->front().distance) {
    SearchKnn(far, query, k, heap);
  }
}

std::vector<Neighbor> KdTree::KNearest(const double* query, int k) const {
  GBX_CHECK_GE(k, 0);
  // Oversized k degrades to "all points", never an assertion — the same
  // guard DynamicKdTree applies against its live count. The explicit
  // root check keeps the clamp safe even for an empty tree, where there
  // is no node 0 to recurse into.
  k = std::min(k, size());
  if (k == 0 || root_ < 0) return {};
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  SearchKnn(root_, query, k, &heap);
  std::sort_heap(heap.begin(), heap.end(), WorseNeighbor);
  for (Neighbor& nb : heap) nb.distance = std::sqrt(nb.distance);
  return heap;
}

}  // namespace gbx
