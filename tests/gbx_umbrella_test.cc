// Includes ONLY the public umbrella header and instantiates one type per
// subsystem, so breakage anywhere in the include/gbx/gbx.h closure (a
// missing transitive include, an ODR clash, a renamed public type) fails
// fast in a single dedicated test instead of surfacing randomly elsewhere.
#include "gbx/gbx.h"

#include <gtest/gtest.h>

namespace gbx {
namespace {

TEST(GbxUmbrellaTest, OneTypePerSubsystem) {
  // common
  Matrix matrix(2, 2, 0.0);
  EXPECT_EQ(matrix.rows(), 2);
  Pcg32 rng(7);
  (void)rng.NextU32();

  // data
  Dataset dataset;
  EXPECT_TRUE(dataset.empty());

  // index
  const Matrix points = Matrix::FromRows({{0.0, 0.0}, {1.0, 1.0}});
  const KnnIndex knn_index(&points);
  EXPECT_EQ(knn_index.KNearestSquared(points.Row(0), 1).size(), 1u);

  // core
  GranularBallSet balls;
  EXPECT_EQ(balls.size(), 0);
  RdGbgConfig rd_cfg;
  GbabsConfig gbabs_cfg;
  EXPECT_GT(rd_cfg.density_tolerance, 0);
  EXPECT_GT(gbabs_cfg.gbg.density_tolerance, 0);

  // sampling
  SrsSampler srs;
  EXPECT_FALSE(srs.name().empty());

  // ml
  KnnClassifier knn;
  EXPECT_FALSE(knn.name().empty());

  // stats
  WilcoxonResult wilcoxon{};
  (void)wilcoxon;

  // viz
  PcaResult pca;
  EXPECT_EQ(pca.components.rows(), 0);

  // cluster
  DpcConfig dpc_cfg;
  (void)dpc_cfg;

  // exp
  ExperimentConfig exp_cfg;
  (void)exp_cfg;
}

}  // namespace
}  // namespace gbx
