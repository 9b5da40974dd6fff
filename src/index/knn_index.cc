#include "index/knn_index.h"

#include <memory>

#include "index/index_strategy.h"

namespace gbx {

KnnIndex::KnnIndex(const Matrix* points) {
  GBX_CHECK(points != nullptr);
  if (ResolveKnnIndexStrategy(points->cols()) == IndexStrategy::kTree) {
    tree_.emplace(points);
  } else {
    rows_ = SoaMatrix::FromMatrix(*points);
  }
}

std::vector<SquaredNeighbor> FlatKNearestSquared(const SoaMatrix& rows,
                                                 const double* query, int k,
                                                 int exclude) {
  GBX_CHECK_GE(k, 0);
  const int n = rows.rows();
  const int eligible = exclude >= 0 && exclude < n ? n - 1 : n;
  k = std::min(k, eligible);
  if (k <= 0) return {};
  const auto dist = std::make_unique_for_overwrite<double[]>(n);
  std::vector<SquaredNeighbor> heap;
  heap.reserve(k);
  ScanKNearest(
      query, rows, 0, n, k, [exclude](int row) { return row != exclude; },
      dist.get(), &heap);
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

std::vector<SquaredNeighbor> KnnIndex::KNearestSquared(const double* query,
                                                       int k,
                                                       int exclude) const {
  if (tree_.has_value()) return tree_->KNearestSquared(query, k, exclude);
  return FlatKNearestSquared(rows_, query, k, exclude);
}

}  // namespace gbx
