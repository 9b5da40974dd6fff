#include "index/brute_force.h"

#include <algorithm>
#include <cmath>

namespace gbx {

BruteForceIndex::BruteForceIndex(const Matrix* points) : points_(points) {
  GBX_CHECK(points != nullptr);
}

std::vector<Neighbor> BruteForceIndex::KNearest(const double* query,
                                                int k) const {
  GBX_CHECK_GE(k, 0);
  const int n = points_->rows();
  const int d = points_->cols();
  k = std::min(k, n);
  if (k == 0) return {};

  // Max-heap of the current best k (by squared distance); heap top is the
  // worst retained candidate.
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  for (int i = 0; i < n; ++i) {
    const double d2 = SquaredDistance(query, points_->Row(i), d);
    OfferToBoundedHeap(&heap, Neighbor{i, d2}, k);
  }
  std::sort_heap(heap.begin(), heap.end(),
                 [](const Neighbor& a, const Neighbor& b) { return a < b; });
  for (Neighbor& nb : heap) nb.distance = std::sqrt(nb.distance);
  return heap;
}

}  // namespace gbx
