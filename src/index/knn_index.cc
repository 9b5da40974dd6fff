#include "index/knn_index.h"

#include <algorithm>
#include <utility>

#include "index/index_strategy.h"
#include "simd/simd.h"

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
  std::vector<std::pair<double, int>> top(k);
  int count = 0;
  simd::SquaredTopK(&query, 1, rows, /*live=*/nullptr, &exclude, 0, n, k,
                    top.data(), &count);
  std::vector<SquaredNeighbor> out(count);
  for (int i = 0; i < count; ++i) out[i] = {top[i].first, top[i].second};
  return out;
}

std::vector<SquaredNeighbor> KnnIndex::KNearestSquared(const double* query,
                                                       int k,
                                                       int exclude) const {
  if (tree_.has_value()) return tree_->KNearestSquared(query, k, exclude);
  return FlatKNearestSquared(rows_, query, k, exclude);
}

}  // namespace gbx
