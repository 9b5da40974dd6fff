#include "index/dynamic_kd_tree.h"

#include <algorithm>
#include <limits>

namespace gbx {

void BoxBound::Append(const Matrix& points, const int* /*ids*/,
                      int /*count*/, const double* lo, const double* hi) {
  const int d = points.cols();
  boxes_.insert(boxes_.end(), lo, lo + d);
  boxes_.insert(boxes_.end(), hi, hi + d);
}

void BallBound::Append(const Matrix& points, const int* ids, int count,
                       const double* /*lo*/, const double* /*hi*/) {
  // Centroid: the per-dimension mean, summed in `ids` order so the
  // structure is deterministic. The covering radius is the largest
  // *computed* centroid distance — the quantity the pruning bound must
  // dominate.
  const int d = points.cols();
  centroids_.resize(centroids_.size() + d, 0.0);
  double* centroid = centroids_.data() + centroids_.size() - d;
  for (int i = 0; i < count; ++i) {
    const double* row = points.Row(ids[i]);
    for (int j = 0; j < d; ++j) centroid[j] += row[j];
  }
  for (int j = 0; j < d; ++j) centroid[j] /= count;
  double radius = 0.0;
  for (int i = 0; i < count; ++i) {
    radius =
        std::max(radius, EuclideanDistance(centroid, points.Row(ids[i]), d));
  }
  radii_.push_back(radius);
}

double BallBound::MinDist(int node, const double* query, int d) const {
  const double dc = EuclideanDistance(
      query, &centroids_[static_cast<std::size_t>(node) * d], d);
  const double radius = radii_[node];
  // Triangle inequality: every member distance >= dc − radius. Both
  // operands are computed values with relative error O(d·eps); the
  // kFpSlack deflation (see the header) turns the bound into a certain
  // lower bound on the members' *computed* distances.
  const double lb = (dc - radius) - kFpSlack * (dc + radius);
  return lb > 0.0 ? lb : 0.0;
}

template <typename Bound>
TombstonedTree<Bound>::TombstonedTree(const Matrix* points,
                                      const double* point_weights,
                                      int leaf_size)
    : points_(points), weights_(point_weights), leaf_size_(leaf_size) {
  GBX_CHECK(points != nullptr);
  GBX_CHECK_GE(leaf_size, 1);
  const int n = points_->rows();
  alive_.assign(n, 1);
  point_leaf_.assign(n, -1);
  order_.resize(n);
  for (int i = 0; i < n; ++i) order_[i] = i;
  extent_.resize(2 * static_cast<std::size_t>(points_->cols()));
  live_ = n;
  built_size_ = n;
  if (n > 0) {
    nodes_.reserve(2 * order_.size() / leaf_size_ + 4);
    bound_.Reserve(nodes_.capacity(), points_->cols());
    root_ = Build(0, n, -1);
  }
}

template <typename Bound>
int TombstonedTree<Bound>::Build(int begin, int end, int parent) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].parent = parent;
  nodes_[node_id].live = end - begin;
  if (weights_ != nullptr) {
    double max_w = 0.0;
    for (int i = begin; i < end; ++i) {
      max_w = std::max(max_w, weights_[order_[i]]);
    }
    nodes_[node_id].max_weight = max_w;
  }

  // The range's per-dimension extent picks the split (the widest
  // dimension) and is the KD-tree's node box.
  const int d = points_->cols();
  double* lo = extent_.data();
  double* hi = lo + d;
  int best_dim = 0;
  double best_spread = -1.0;
  for (int j = 0; j < d; ++j) {
    double mn = std::numeric_limits<double>::infinity();
    double mx = -mn;
    for (int i = begin; i < end; ++i) {
      const double v = points_->At(order_[i], j);
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    lo[j] = mn;
    hi[j] = mx;
    if (mx - mn > best_spread) {
      best_spread = mx - mn;
      best_dim = j;
    }
  }
  bound_.Append(*points_, &order_[begin], end - begin, lo, hi);
  // A zero best spread means every point in the range is identical; the
  // range stays one (possibly oversized) leaf.
  if (end - begin <= leaf_size_ || best_spread <= 0.0) {
    nodes_[node_id].begin = begin;
    nodes_[node_id].end = end;
    for (int i = begin; i < end; ++i) point_leaf_[order_[i]] = node_id;
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
  const int left = Build(begin, mid, node_id);
  const int right = Build(mid, end, node_id);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

template <typename Bound>
bool TombstonedTree<Bound>::alive(int i) const {
  GBX_CHECK(i >= 0 && i < points_->rows());
  return alive_[i] != 0;
}

template <typename Bound>
void TombstonedTree<Bound>::Remove(int i) {
  GBX_CHECK(i >= 0 && i < points_->rows());
  GBX_CHECK_MSG(alive_[i] != 0, "Remove: point already removed");
  alive_[i] = 0;
  --live_;
  ++tombstones_;
  for (int nid = point_leaf_[i]; nid >= 0; nid = nodes_[nid].parent) {
    --nodes_[nid].live;
  }
  // Amortized compaction: once the majority of the indexed points are
  // tombstones, the structure (and every query walking past them) is
  // paying for points that no longer exist.
  if (2 * tombstones_ > built_size_) Rebuild();
}

template <typename Bound>
void TombstonedTree<Bound>::Rebuild() {
  order_.clear();
  const int n = points_->rows();
  for (int i = 0; i < n; ++i) {
    if (alive_[i]) order_.push_back(i);
  }
  built_size_ = static_cast<int>(order_.size());
  tombstones_ = 0;
  ++rebuilds_;
  nodes_.clear();
  bound_.Clear();
  root_ = built_size_ > 0 ? Build(0, built_size_, -1) : -1;
}

template <typename Bound>
template <typename LowerBound, typename Visit>
void TombstonedTree<Bound>::ForLiveChildrenLowerFirst(
    const Node& node, LowerBound lower_bound, Visit visit) const {
  // Both bounds first, so the lower side tightens the heap before the
  // sibling's bound is tested.
  int children[2] = {node.left, node.right};
  double bounds[2] = {lower_bound(node.left), lower_bound(node.right)};
  if (bounds[1] < bounds[0]) {
    std::swap(children[0], children[1]);
    std::swap(bounds[0], bounds[1]);
  }
  for (int s = 0; s < 2; ++s) {
    if (nodes_[children[s]].live == 0) continue;
    visit(children[s], bounds[s]);
  }
}

template <typename Bound>
template <bool kNoTombstones>
void TombstonedTree<Bound>::SearchKnnSquared(
    int node_id, const double* query, int k, int exclude,
    std::vector<SquaredNeighbor>* heap) const {
  const Node& node = nodes_[node_id];
  const int d = points_->cols();
  if (node.split_dim < 0) {
    for (int i = node.begin; i < node.end; ++i) {
      const int idx = order_[i];
      if ((!kNoTombstones && !alive_[idx]) || idx == exclude) continue;
      const SquaredNeighbor cand{SquaredDistance(query, points_->Row(idx), d),
                                 idx};
      OfferToBoundedHeap(heap, cand, k);
    }
    return;
  }
  // Every eligible point in a child has dist2 >= the child's squared
  // bound, so pruning at "bound > worst dist2" can never drop a
  // candidate (an equal dist2 with a smaller index still visits).
  const auto full = [&] { return static_cast<int>(heap->size()) >= k; };
  if constexpr (Bound::kSplitPlaneOrder) {
    const double diff = query[node.split_dim] - node.split_value;
    const int near = diff <= 0.0 ? node.left : node.right;
    const int far = diff <= 0.0 ? node.right : node.left;
    if constexpr (kNoTombstones) {
      // Every node is live: the classic KD-tree walk. diff² bounds the far
      // child like its box (see the header), and testing it alone costs
      // less than the box tests it skips (BENCH_pr22.json, tree_walk).
      SearchKnnSquared<true>(near, query, k, exclude, heap);
      if (!full() || diff * diff <= heap->front().dist2) {
        SearchKnnSquared<true>(far, query, k, exclude, heap);
      }
    } else {
      for (const int child : {near, far}) {
        if (nodes_[child].live == 0) continue;
        if (full() &&
            bound_.MinDist2(child, query, d) > heap->front().dist2) {
          continue;
        }
        SearchKnnSquared<false>(child, query, k, exclude, heap);
      }
    }
  } else {
    ForLiveChildrenLowerFirst(
        node, [&](int child) { return bound_.MinDist(child, query, d); },
        [&](int child, double min_dist) {
          if (full() &&
              Bound::SquaredLowerBound(min_dist) > heap->front().dist2) {
            return;
          }
          SearchKnnSquared<kNoTombstones>(child, query, k, exclude, heap);
        });
  }
}

template <typename Bound>
std::vector<SquaredNeighbor> TombstonedTree<Bound>::KNearestSquared(
    const double* query, int k, int exclude) const {
  GBX_CHECK_GE(k, 0);
  int eligible = live_;
  if (exclude >= 0 && exclude < points_->rows() && alive_[exclude]) {
    --eligible;
  }
  k = std::min(k, eligible);
  if (k <= 0 || root_ < 0) return {};
  std::vector<SquaredNeighbor> heap;
  heap.reserve(k + 1);
  // With no tombstones (every tree never removed from, and a tree just
  // rebuilt) no liveness test can fail.
  if (tombstones_ == 0) {
    SearchKnnSquared<true>(root_, query, k, exclude, &heap);
  } else {
    SearchKnnSquared<false>(root_, query, k, exclude, &heap);
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

template <typename Bound>
void TombstonedTree<Bound>::SearchSurface(int node_id, const double* query,
                                          int k,
                                          std::vector<Neighbor>* heap) const {
  const Node& node = nodes_[node_id];
  const int d = points_->cols();
  if (node.split_dim < 0) {
    for (int i = node.begin; i < node.end; ++i) {
      const int idx = order_[i];
      if (!alive_[idx]) continue;
      // The exact arithmetic of the exhaustive scan: EuclideanDistance,
      // then the containment-or-not score.
      const double dist =
          std::sqrt(SquaredDistance(query, points_->Row(idx), d));
      const double w = weights_[idx];
      const Neighbor cand{idx, dist <= w ? dist - w : dist};
      OfferToBoundedHeap(heap, cand, k);
    }
    return;
  }
  // Every score in a subtree is >= its distance bound minus its largest
  // weight (subtraction is monotone, weights are non-negative), so
  // pruning strictly above the current worst retained score never drops
  // a candidate — equal bounds still visit, preserving index ties.
  ForLiveChildrenLowerFirst(
      node,
      [&](int child) {
        return bound_.MinDist(child, query, d) - nodes_[child].max_weight;
      },
      [&](int child, double min_score) {
        if (static_cast<int>(heap->size()) >= k &&
            min_score > heap->front().distance) {
          return;
        }
        SearchSurface(child, query, k, heap);
      });
}

template <typename Bound>
std::vector<Neighbor> TombstonedTree<Bound>::KNearestSurface(
    const double* query, int k) const {
  GBX_CHECK_MSG(weights_ != nullptr,
                "KNearestSurface requires point weights");
  GBX_CHECK_GE(k, 0);
  k = std::min(k, live_);
  if (k == 0 || root_ < 0) return {};
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  SearchSurface(root_, query, k, &heap);
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

template class TombstonedTree<BoxBound>;
template class TombstonedTree<BallBound>;

}  // namespace gbx
