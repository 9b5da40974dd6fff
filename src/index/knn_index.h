// The exact k-nearest primitive of the static callers (the kNN
// classifier, SMOTE, Borderline-SMOTE, Tomek links).
//
// KnnIndex is built once over a point matrix and never changes. At low
// dimensionality it queries a DynamicKdTree it never removes from; above
// it, a SoA copy of the rows streamed by simd::SquaredTopK, the fused
// top-k scan RD-GBG's flat strategy also runs (core/rd_gbg.cc). The
// cutoff is ResolveKnnIndexStrategy's (index_strategy.cc). Both answer
// in the same (squared distance, index) order with the same arithmetic,
// so the choice changes wall-clock only.
#ifndef GBX_INDEX_KNN_INDEX_H_
#define GBX_INDEX_KNN_INDEX_H_

#include <optional>
#include <vector>

#include "index/dynamic_kd_tree.h"
#include "index/neighbor_index.h"

namespace gbx {

/// KnnIndex's query above its cutoff: one simd::SquaredTopK query over
/// all of `rows`, ascending by (squared distance, index), excluding row
/// `exclude` (-1 excludes nothing).
std::vector<SquaredNeighbor> FlatKNearestSquared(const SoaMatrix& rows,
                                                 const double* query, int k,
                                                 int exclude);

class KnnIndex {
 public:
  /// `points` must outlive the index and must not be mutated while it is
  /// live.
  explicit KnnIndex(const Matrix* points);

  /// The k nearest rows to `query` by (squared distance, index),
  /// ascending, excluding row `exclude` (-1 excludes nothing). k larger
  /// than the number of eligible rows returns all of them. Safe to call
  /// concurrently: a query allocates its own scratch.
  std::vector<SquaredNeighbor> KNearestSquared(const double* query, int k,
                                               int exclude = -1) const;

 private:
  std::optional<DynamicKdTree> tree_;  // low dimensionality
  SoaMatrix rows_;                     // otherwise: the flat scan's copy
};

}  // namespace gbx

#endif  // GBX_INDEX_KNN_INDEX_H_
