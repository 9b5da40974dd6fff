// Exhaustive-scan neighbor index: O(n·d) per query, no preprocessing.
// The reference implementation that the KD-tree is property-tested against,
// and the faster choice for small n or very high d.
#ifndef GBX_INDEX_BRUTE_FORCE_H_
#define GBX_INDEX_BRUTE_FORCE_H_

#include <vector>

#include "index/neighbor_index.h"

namespace gbx {

class BruteForceIndex {
 public:
  /// `points` must outlive the index.
  explicit BruteForceIndex(const Matrix* points);

  /// The k nearest points to `query`, ranked by (squared distance,
  /// index), Euclidean distances in the result. Returns fewer than k
  /// when the index holds fewer points.
  std::vector<Neighbor> KNearest(const double* query, int k) const;

 private:
  const Matrix* points_;
};

}  // namespace gbx

#endif  // GBX_INDEX_BRUTE_FORCE_H_
