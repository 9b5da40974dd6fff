// k-nearest-neighbors classifier (Cover & Hart, 1967) with scikit-learn's
// default k = 5 and uniform vote, over the exact k-nearest index
// (index/knn_index.h). Ties break toward the class of the nearer neighbor,
// matching the behaviour of a distance-sorted majority vote.
#ifndef GBX_ML_KNN_H_
#define GBX_ML_KNN_H_

#include "index/knn_index.h"
#include "ml/classifier.h"

namespace gbx {

class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(int k = 5);
  // The fitted index points into train_, so a copied or moved classifier
  // would query the source's (possibly moved-from) rows.
  KnnClassifier(const KnnClassifier&) = delete;
  KnnClassifier& operator=(const KnnClassifier&) = delete;

  void Fit(const Dataset& train, Pcg32* rng) override;
  int Predict(const double* x) const override;
  std::string name() const override { return "kNN"; }

  /// Restores a fitted state from a stored training set (model
  /// deserialization; see serve/model_io.h). Equivalent to Fit(train)
  /// — kNN's "model" is the training data plus the rebuilt index.
  void Restore(Dataset train);

  bool fitted() const { return index_ != nullptr; }
  int k() const { return k_; }
  /// The stored training set (empty before Fit/Restore).
  const Dataset& train() const { return train_; }

 private:
  int k_;
  Dataset train_;
  std::unique_ptr<KnnIndex> index_;
};

}  // namespace gbx

#endif  // GBX_ML_KNN_H_
