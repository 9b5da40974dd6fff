#include "sampling/borderline_smote.h"

#include <algorithm>

#include "index/knn_index.h"
#include "sampling/smote.h"

namespace gbx {

BorderlineSmoteSampler::BorderlineSmoteSampler(int m_neighbors,
                                               int k_neighbors)
    : m_neighbors_(m_neighbors), k_neighbors_(k_neighbors) {
  GBX_CHECK_GE(m_neighbors, 1);
  GBX_CHECK_GE(k_neighbors, 1);
}

std::vector<int> BorderlineSmoteSampler::DangerSamples(
    const Dataset& train, const KnnIndex& index,
    const std::vector<int>& class_indices, int cls) const {
  std::vector<int> danger;
  const int m = std::min(m_neighbors_, train.size() - 1);
  for (int idx : class_indices) {
    const std::vector<SquaredNeighbor> nns =
        index.KNearestSquared(train.row(idx), m, /*exclude=*/idx);
    int heterogeneous = 0;
    for (const SquaredNeighbor& nb : nns) {
      if (train.label(nb.index) != cls) ++heterogeneous;
    }
    // DANGER: m/2 <= heterogeneous < m. heterogeneous == m means the
    // sample is likely noise; fewer than half means it is safe interior.
    if (2 * heterogeneous >= m && heterogeneous < m) {
      danger.push_back(idx);
    }
  }
  return danger;
}

Dataset BorderlineSmoteSampler::Sample(const Dataset& train,
                                       Pcg32* rng) const {
  GBX_CHECK(rng != nullptr);
  Dataset out = train;
  const std::vector<int> counts = train.ClassCounts();
  const int majority = *std::max_element(counts.begin(), counts.end());
  const KnnIndex index(&train.x());
  for (int cls = 0; cls < train.num_classes(); ++cls) {
    if (counts[cls] == 0 || counts[cls] >= majority) continue;
    const std::vector<int> members = train.IndicesOfClass(cls);
    std::vector<int> danger = DangerSamples(train, index, members, cls);
    // No borderline samples: fall back to plain SMOTE seeds so heavily
    // imbalanced folds still get rebalanced (imblearn raises instead; a
    // fallback keeps experiment pipelines total).
    const std::vector<int>& seeds = danger.empty() ? members : danger;
    AppendSyntheticSamples(train, seeds, members, cls,
                           majority - counts[cls], k_neighbors_, rng, &out);
  }
  return out;
}

}  // namespace gbx
