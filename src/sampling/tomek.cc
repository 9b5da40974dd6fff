#include "sampling/tomek.h"

#include <algorithm>

#include "index/knn_index.h"

namespace gbx {

TomekLinksSampler::TomekLinksSampler(bool remove_both)
    : remove_both_(remove_both) {}

std::vector<std::pair<int, int>> TomekLinksSampler::FindLinks(
    const Dataset& train) {
  const int n = train.size();
  std::vector<std::pair<int, int>> links;
  if (n < 2) return links;
  const KnnIndex index(&train.x());
  // Nearest other sample of each sample (an exact duplicate counts).
  std::vector<int> nn(n);
  for (int i = 0; i < n; ++i) {
    nn[i] = index.KNearestSquared(train.row(i), 1, /*exclude=*/i)[0].index;
  }
  for (int i = 0; i < n; ++i) {
    const int j = nn[i];
    if (j > i && nn[j] == i && train.label(i) != train.label(j)) {
      links.emplace_back(i, j);
    }
  }
  return links;
}

Dataset TomekLinksSampler::Sample(const Dataset& train, Pcg32* rng) const {
  (void)rng;  // deterministic method; interface kept uniform
  const std::vector<std::pair<int, int>> links = FindLinks(train);
  const int majority_class = train.MajorityClass();
  std::vector<bool> removed(train.size(), false);
  for (const auto& [a, b] : links) {
    if (remove_both_) {
      removed[a] = removed[b] = true;
      continue;
    }
    if (train.label(a) == majority_class) {
      removed[a] = true;
    } else if (train.label(b) == majority_class) {
      removed[b] = true;
    }
    // Links between two minority classes are left intact under the
    // majority-only policy, as in imbalanced-learn.
  }
  std::vector<int> keep;
  keep.reserve(train.size());
  for (int i = 0; i < train.size(); ++i) {
    if (!removed[i]) keep.push_back(i);
  }
  return train.Subset(keep);
}

}  // namespace gbx
