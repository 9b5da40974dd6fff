// SMOTE: Synthetic Minority Over-sampling Technique (Chawla et al., 2002).
// Every class except the majority is oversampled to the majority count by
// interpolating each minority sample toward one of its k nearest
// same-class neighbors: x_new = x + u·(x_nn − x), u ~ U[0,1).
#ifndef GBX_SAMPLING_SMOTE_H_
#define GBX_SAMPLING_SMOTE_H_

#include "sampling/sampler.h"

namespace gbx {

class SmoteSampler : public Sampler {
 public:
  explicit SmoteSampler(int k_neighbors = 5);

  Dataset Sample(const Dataset& train, Pcg32* rng) const override;
  std::string name() const override { return "SM"; }

  int k_neighbors() const { return k_neighbors_; }

 private:
  int k_neighbors_;
};

/// Helper shared by the SMOTE family: appends `count` synthetic samples of
/// class `cls` to `out`, interpolating members of `seed_indices` toward
/// their k nearest neighbors *within `neighbor_pool`* (distinct sample
/// ids; a seed is never its own neighbor). `seed_indices` are the samples
/// interpolation starts from (the DANGER set for Borderline-SMOTE; all
/// class members for plain SMOTE).
void AppendSyntheticSamples(const Dataset& train,
                            const std::vector<int>& seed_indices,
                            const std::vector<int>& neighbor_pool, int cls,
                            int count, int k_neighbors, Pcg32* rng,
                            Dataset* out);

}  // namespace gbx

#endif  // GBX_SAMPLING_SMOTE_H_
