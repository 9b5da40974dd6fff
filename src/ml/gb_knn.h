// Granular-ball nearest-neighbor classifier (GB-kNN, after Xia et al.,
// Information Sciences 2019 [22] — the original granular-ball classifier).
// Training granulates the data with RD-GBG; prediction assigns the label
// of the ball whose *surface* is nearest to the query:
//     d(x, gb) = ||x - c|| - r.
// Because balls are pure and noise was removed during granulation, GB-kNN
// inherits RD-GBG's noise robustness, and inference touches m balls
// instead of N samples. This is an extension beyond the paper's five
// evaluation classifiers, exercising the GranularBallSet as a model.
#ifndef GBX_ML_GB_KNN_H_
#define GBX_ML_GB_KNN_H_

#include <memory>
#include <variant>

#include "core/rd_gbg.h"
#include "data/scaler.h"
#include "index/dynamic_kd_tree.h"
#include "ml/classifier.h"

namespace gbx {

class GbKnnClassifier : public Classifier {
 public:
  /// `k` balls vote; k = 1 reproduces the classic GB-kNN rule.
  explicit GbKnnClassifier(RdGbgConfig gbg = {}, int k = 1);

  void Fit(const Dataset& train, Pcg32* rng) override;
  int Predict(const double* x) const override;
  /// Queries are independent, so batch prediction fans out over the
  /// shared thread pool (RdGbgConfig::num_threads; <= 0 = GBX_THREADS or
  /// hardware). Output is identical to the serial per-query loop.
  std::vector<int> PredictBatch(const Matrix& x) const override;
  std::string name() const override { return "GB-kNN"; }

  /// The min(k, num_balls()) balls with the lowest surface score for the
  /// raw query `x`, as ascending (score, ball index) pairs with ties to
  /// the lower index: the balls Predict votes over (with k = k()).
  /// Bit-identical under every index strategy.
  std::vector<std::pair<double, int>> NearestBalls(const double* x,
                                                   int k) const;

  /// Restores a fitted state without re-granulating (model
  /// deserialization; see serve/model_io.h). `balls` must be non-empty,
  /// `scaler` fitted over the same dimensionality, and `num_classes`
  /// must cover every ball label. Predictions after Restore are
  /// bit-identical to the classifier the state was captured from.
  void Restore(GranularBallSet balls, MinMaxScaler scaler, int num_classes);

  bool fitted() const { return !balls_.empty(); }
  int k() const { return k_; }
  int num_classes() const { return num_classes_; }
  const RdGbgConfig& config() const { return gbg_config_; }
  /// The seed the last granulation actually ran with: the configured
  /// seed, or the rng-derived one when Fit received a non-null rng.
  /// Model artifacts persist it as provenance (serve/model_io.h).
  std::uint64_t effective_seed() const { return effective_seed_; }
  const MinMaxScaler& scaler() const { return scaler_; }

  /// Number of balls in the fitted model (0 before Fit).
  int num_balls() const { return balls_.size(); }
  const GranularBallSet& balls() const { return balls_; }

  /// Chooses how Predict scans the ball centers: kFlat is a SIMD
  /// surface-score scan plus top-k selection over the SoA center layout
  /// (simd::SurfaceTopK; serial, split over the pool only for models
  /// past ~2^18 balls × dims), kTree a KD-tree and kBallTree a metric
  /// ball-tree over the centers, built once at Fit/Restore and shared by
  /// Predict / PredictBatch / the serving engine; kAuto resolves by ball
  /// count and dimensionality — the KD-tree at d<=2 from ~2k balls, the
  /// flat scan everywhere else (index/index_strategy.h). Every strategy
  /// returns bit-identical predictions — both trees rank balls by the
  /// flat scan's exact (score, index) order via KNearestSurface, whose
  /// subtree bound is a certain score lower bound. The knob is pure
  /// runtime state: model artifacts never persist it, and a model saved
  /// under one strategy predicts identically under the others
  /// (tests/roundtrip_fuzz_test.cc). Re-resolves and rebuilds/drops the
  /// backend immediately when fitted; a no-op when `strategy` is
  /// already set. NOT safe to call concurrently with
  /// in-flight Predict/PredictBatch — flip the knob before serving
  /// starts (as gbx_serve does at load).
  void set_index_strategy(IndexStrategy strategy);
  IndexStrategy index_strategy() const { return gbg_config_.index_strategy; }
  /// What Predict will actually use: kTree / kBallTree when a center
  /// index is built, kFlat otherwise (always kFlat before Fit/Restore).
  IndexStrategy resolved_index_strategy() const;

 private:
  // Ball centers as a matrix, radii as per-center weights, and one tree
  // backend over them serving the surface-distance query
  // (KNearestSurface) — the KD-tree kAuto picks at d<=2, or a forced
  // metric ball-tree. Heap-allocated as one block so the tree's
  // pointers into `centers`/`radii` survive moves of the classifier;
  // shared_ptr keeps the classifier copyable (the index is immutable
  // after construction, so sharing is safe — queries never mutate the
  // tree).
  struct CenterIndex {
    Matrix centers;
    std::vector<double> radii;
    std::variant<DynamicKdTree, BallTree> tree;
    CenterIndex(Matrix centers_in, std::vector<double> radii_in,
                IndexStrategy backend)
        : centers(std::move(centers_in)),
          radii(std::move(radii_in)),
          tree(backend == IndexStrategy::kBallTree
                   ? decltype(tree)(std::in_place_type<BallTree>, &centers,
                                    radii.data())
                   : decltype(tree)(std::in_place_type<DynamicKdTree>,
                                    &centers, radii.data())) {}
    std::vector<Neighbor> KNearestSurface(const double* query, int k) const {
      return std::visit(
          [&](const auto& t) { return t.KNearestSurface(query, k); }, tree);
    }
  };

  // Flat-scan backend: centers and radii in the SoA blocked layout that
  // simd::SurfaceTopK streams once per query (src/simd/simd.h),
  // row i = ball i. shared_ptr for the same copyability/move-stability
  // reasons as CenterIndex.
  struct FlatCenters {
    SoaMatrix soa;
    std::vector<double> radii;
  };

  /// (Re)derives the resolved strategy and builds the center tree or
  /// the SoA flat backend. Called by Fit/Restore/set_index_strategy.
  void RebuildCenterIndex();
  int VoteOverNearest(const std::vector<std::pair<double, int>>& top) const;

  RdGbgConfig gbg_config_;
  int k_;
  std::uint64_t effective_seed_;
  GranularBallSet balls_;
  MinMaxScaler scaler_;
  int num_classes_ = 0;
  std::shared_ptr<const CenterIndex> center_index_;
  std::shared_ptr<const FlatCenters> flat_centers_;
  IndexStrategy resolved_ = IndexStrategy::kFlat;
};

}  // namespace gbx

#endif  // GBX_ML_GB_KNN_H_
