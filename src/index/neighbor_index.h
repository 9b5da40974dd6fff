// The result types and exactness helpers every nearest-neighbor search
// shares: the dynamic trees, KnnIndex and RD-GBG. Indexes are non-owning
// views over a Matrix whose lifetime must exceed the index.
#ifndef GBX_INDEX_NEIGHBOR_INDEX_H_
#define GBX_INDEX_NEIGHBOR_INDEX_H_

#include <algorithm>
#include <vector>

#include "common/matrix.h"

namespace gbx {

struct Neighbor {
  int index = -1;
  double distance = 0.0;  // Euclidean

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;  // deterministic tie-break
  }
};

/// A neighbor in squared-distance space. Distance-heavy hot loops
/// (granulation above all) order candidates by (dist2, index) and defer
/// the sqrt until a radius is actually assigned; sqrt can merge distinct
/// squared distances into ties, so the squared order — not the Euclidean
/// order — is the one those loops must reproduce exactly.
struct SquaredNeighbor {
  double dist2 = 0.0;
  int index = -1;

  friend bool operator<(const SquaredNeighbor& a, const SquaredNeighbor& b) {
    if (a.dist2 != b.dist2) return a.dist2 < b.dist2;
    return a.index < b.index;  // deterministic tie-break
  }
};

/// Offers `cand` to a max-heap holding the k best (smallest by
/// operator<) candidates seen so far — the selection idiom every index
/// implementation shares. After all offers, std::sort_heap with the same
/// order yields the k best ascending. Keeping the one copy here is what
/// lets the cross-index bit-identity contracts (every tree vs the
/// exhaustive scan) rest on a single piece of code.
template <typename T>
void OfferToBoundedHeap(std::vector<T>* heap, const T& cand, int k) {
  const auto worse = [](const T& a, const T& b) { return a < b; };
  if (static_cast<int>(heap->size()) < k) {
    heap->push_back(cand);
    std::push_heap(heap->begin(), heap->end(), worse);
  } else if (cand < heap->front()) {
    std::pop_heap(heap->begin(), heap->end(), worse);
    heap->back() = cand;
    std::push_heap(heap->begin(), heap->end(), worse);
  }
}

/// Smallest squared distance from `query` to the axis-aligned box
/// [lo, hi] (0 inside), summed dimension 0..d-1 — the SAME summation
/// order as SquaredDistance. That shared order is load-bearing: the
/// box-pruned DynamicKdTree relies on the box distance dominating each
/// member's SquaredDistance term by term in identical order, which is
/// what makes its pruning floating-point-exact. It lives next to
/// OfferToBoundedHeap so that argument sits beside the other exactness
/// contracts the indexes share.
inline double BoxMinSquaredDistance(const double* lo, const double* hi,
                                    const double* query, int d) {
  double s = 0.0;
  for (int j = 0; j < d; ++j) {
    double diff = 0.0;
    if (query[j] < lo[j]) {
      diff = lo[j] - query[j];
    } else if (query[j] > hi[j]) {
      diff = query[j] - hi[j];
    }
    s += diff * diff;
  }
  return s;
}

}  // namespace gbx

#endif  // GBX_INDEX_NEIGHBOR_INDEX_H_
