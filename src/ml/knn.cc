#include "ml/knn.h"

#include <algorithm>

namespace gbx {

KnnClassifier::KnnClassifier(int k) : k_(k) { GBX_CHECK_GE(k, 1); }

void KnnClassifier::Fit(const Dataset& train, Pcg32* rng) {
  (void)rng;  // deterministic
  GBX_CHECK_GT(train.size(), 0);
  train_ = train;
  index_ = std::make_unique<KnnIndex>(&train_.x());
}

void KnnClassifier::Restore(Dataset train) {
  GBX_CHECK_GT(train.size(), 0);
  train_ = std::move(train);
  index_ = std::make_unique<KnnIndex>(&train_.x());
}

int KnnClassifier::Predict(const double* x) const {
  GBX_CHECK_MSG(fitted(),
                "kNN: Predict called before Fit/Restore (no index)");
  const std::vector<SquaredNeighbor> nns = index_->KNearestSquared(x, k_);
  std::vector<int> votes(train_.num_classes(), 0);
  for (const SquaredNeighbor& nb : nns) ++votes[train_.label(nb.index)];
  // Majority vote; tie -> class of the nearest neighbor among tied classes.
  int best = -1;
  for (int c = 0; c < train_.num_classes(); ++c) {
    if (best < 0 || votes[c] > votes[best]) best = c;
  }
  for (const SquaredNeighbor& nb : nns) {
    const int cls = train_.label(nb.index);
    if (votes[cls] == votes[best]) return cls;
  }
  return best;
}

}  // namespace gbx
