// The exact k-nearest primitive of the static callers (the kNN
// classifier, SMOTE, Borderline-SMOTE, Tomek links), and the flat scan
// loop it shares with RD-GBG's resident scan (core/rd_gbg.cc).
//
// KnnIndex is built once over a point matrix and never changes. At low
// dimensionality it queries a DynamicKdTree it never removes from; above
// it, a SoA copy of the rows streamed by ScanKNearest. The cutoff is
// ResolveKnnIndexStrategy's (index_strategy.cc). Both answer in the same
// (squared distance, index) order with the same arithmetic, so the choice
// changes wall-clock only.
#ifndef GBX_INDEX_KNN_INDEX_H_
#define GBX_INDEX_KNN_INDEX_H_

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "index/dynamic_kd_tree.h"
#include "index/neighbor_index.h"
#include "simd/simd.h"

namespace gbx {

/// The flat k-nearest loop: squared distances from `q` to rows [lo, hi)
/// of `rows` into dist[lo, hi) (indexed by row), one kernel block at a
/// time, and every row with eligible(row) offered as (dist2, row) to
/// `heap`, a bounded max-heap of the k smallest (OfferToBoundedHeap),
/// cleared first. A row farther than the heap's current worst is skipped
/// before the eligibility test; a tie still competes on the row number.
/// Rows rank by row number, so a caller that maps rows to other ids
/// after the selection keeps the (dist2, id) order only when that map is
/// increasing.
template <typename Eligible>
void ScanKNearest(const double* q, const SoaMatrix& rows, int lo, int hi,
                  int k, const Eligible& eligible, double* dist,
                  std::vector<SquaredNeighbor>* heap) {
  // Rows per kernel call: a block's distances stay L1-resident between
  // the kernel and the heap pass.
  constexpr int kScanBlock = 256;
  heap->clear();
  double worst = std::numeric_limits<double>::infinity();
  for (int b = lo; b < hi; b += kScanBlock) {
    const int e = std::min(hi, b + kScanBlock);
    simd::SquaredDistanceBatch(q, rows, b, e, dist);
    for (int s = b; s < e; ++s) {
      if (dist[s] > worst || !eligible(s)) continue;
      OfferToBoundedHeap(heap, SquaredNeighbor{dist[s], s}, k);
      if (static_cast<int>(heap->size()) == k) worst = heap->front().dist2;
    }
  }
}

/// KnnIndex's query above its cutoff: ScanKNearest over all of `rows`
/// into a distance buffer it allocates, sorted ascending.
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
