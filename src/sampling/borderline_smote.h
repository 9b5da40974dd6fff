// Borderline-SMOTE (Han et al., 2005), variant 1. Only minority samples in
// "DANGER" — more than half of their m nearest neighbors (over the whole
// training set) heterogeneous, but not all — seed synthetic generation;
// interpolation targets are same-class nearest neighbors, so new samples
// strengthen the borderline region rather than the class interior.
#ifndef GBX_SAMPLING_BORDERLINE_SMOTE_H_
#define GBX_SAMPLING_BORDERLINE_SMOTE_H_

#include "index/knn_index.h"
#include "sampling/sampler.h"

namespace gbx {

class BorderlineSmoteSampler : public Sampler {
 public:
  /// `m_neighbors` sizes the danger test; `k_neighbors` the interpolation
  /// pool (defaults follow the original paper / imbalanced-learn).
  explicit BorderlineSmoteSampler(int m_neighbors = 10, int k_neighbors = 5);

  Dataset Sample(const Dataset& train, Pcg32* rng) const override;
  std::string name() const override { return "BSM"; }

  /// The DANGER subset of `class_indices`: borderline minority samples.
  /// `index` is a KnnIndex over train.x(). Exposed for tests.
  std::vector<int> DangerSamples(const Dataset& train, const KnnIndex& index,
                                 const std::vector<int>& class_indices,
                                 int cls) const;

 private:
  int m_neighbors_;
  int k_neighbors_;
};

}  // namespace gbx

#endif  // GBX_SAMPLING_BORDERLINE_SMOTE_H_
