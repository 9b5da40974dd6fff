#include "sampling/smote.h"

#include <algorithm>

#include "index/knn_index.h"

namespace gbx {

void AppendSyntheticSamples(const Dataset& train,
                            const std::vector<int>& seed_indices,
                            const std::vector<int>& neighbor_pool, int cls,
                            int count, int k_neighbors, Pcg32* rng,
                            Dataset* out) {
  GBX_CHECK(out != nullptr);
  GBX_CHECK(rng != nullptr);
  if (count <= 0 || seed_indices.empty() || neighbor_pool.empty()) return;
  const int p = train.num_features();

  const Matrix pool = train.x().SelectRows(neighbor_pool);
  const KnnIndex index(&pool);
  // A seed's own pool row is excluded from its neighbors.
  std::vector<int> pool_row(train.size(), -1);
  for (int r = 0; r < static_cast<int>(neighbor_pool.size()); ++r) {
    pool_row[neighbor_pool[r]] = r;
  }

  std::vector<double> synthetic(p);
  std::vector<int> candidates;
  for (int s = 0; s < count; ++s) {
    const int seed =
        seed_indices[rng->NextBounded(
            static_cast<std::uint32_t>(seed_indices.size()))];
    const double* x = train.row(seed);
    candidates.clear();
    for (const SquaredNeighbor& nb :
         index.KNearestSquared(x, k_neighbors, pool_row[seed])) {
      candidates.push_back(neighbor_pool[nb.index]);
    }
    if (candidates.empty()) candidates.push_back(seed);  // lone sample
    const int nn = candidates[rng->NextBounded(
        static_cast<std::uint32_t>(candidates.size()))];
    const double* xn = train.row(nn);
    const double u = rng->NextDouble();
    for (int j = 0; j < p; ++j) synthetic[j] = x[j] + u * (xn[j] - x[j]);
    out->AppendSample(synthetic.data(), p, cls);
  }
}

SmoteSampler::SmoteSampler(int k_neighbors) : k_neighbors_(k_neighbors) {
  GBX_CHECK_GE(k_neighbors, 1);
}

Dataset SmoteSampler::Sample(const Dataset& train, Pcg32* rng) const {
  GBX_CHECK(rng != nullptr);
  Dataset out = train;
  const std::vector<int> counts = train.ClassCounts();
  const int majority = *std::max_element(counts.begin(), counts.end());
  for (int cls = 0; cls < train.num_classes(); ++cls) {
    if (counts[cls] == 0 || counts[cls] >= majority) continue;
    const std::vector<int> members = train.IndicesOfClass(cls);
    AppendSyntheticSamples(train, members, members, cls,
                           majority - counts[cls], k_neighbors_, rng, &out);
  }
  return out;
}

}  // namespace gbx
