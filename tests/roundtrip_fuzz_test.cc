// Randomized round-trip properties for the persistence layers: arbitrary
// datasets through CSV, arbitrary granulations through the granular-ball
// format, and fitted classifiers through the gbx-model format — plus
// corruption robustness: truncated or bit-flipped artifacts must come
// back as a clean error Status (or, for the checksum-free ball format, a
// still-well-formed set), never UB or a crash. TEST_P over seeds gives
// independent random instances.
#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/gb_io.h"
#include "core/rd_gbg.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "fuzz_dataset.h"
#include "ml/gb_knn.h"
#include "ml/knn.h"
#include "serve/model_io.h"
#include "simd/simd.h"

namespace gbx {
namespace {

class RoundTripFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripFuzzTest, CsvRoundTripIsExact) {
  const Dataset original = RandomDataset(1000 + GetParam());
  const std::string path = ::testing::TempDir() + "/gbx_fuzz_" +
                           std::to_string(GetParam()) + ".csv";
  ASSERT_TRUE(SaveCsv(original, path).ok());
  const StatusOr<Dataset> loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->num_features(), original.num_features());
  for (int i = 0; i < original.size(); ++i) {
    ASSERT_EQ(loaded->label(i), original.label(i));
    for (int j = 0; j < original.num_features(); ++j) {
      // %.17g text is lossless for doubles.
      ASSERT_DOUBLE_EQ(loaded->feature(i, j), original.feature(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST_P(RoundTripFuzzTest, GranularBallRoundTripPreservesInvariants) {
  const Dataset ds = RandomDataset(2000 + GetParam());
  RdGbgConfig cfg;
  cfg.seed = 3000 + GetParam();
  const RdGbgResult generated = GenerateRdGbg(ds, cfg);
  const StatusOr<GranularBallSet> loaded =
      GranularBallsFromString(GranularBallsToString(generated.balls));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), generated.balls.size());
  EXPECT_TRUE(loaded->CheckPurity(ds.y()));
  EXPECT_TRUE(loaded->CheckContainment());
  EXPECT_TRUE(loaded->CheckNonOverlap(1e-9));
  EXPECT_TRUE(loaded->CheckDisjointMembership(ds.size()));
}

// Flips one character to a different printable character.
std::string FlipByte(std::string text, std::size_t pos, Pcg32* rng) {
  char replacement;
  do {
    replacement = static_cast<char>('!' + rng->NextBounded(94));
  } while (replacement == text[pos]);
  text[pos] = replacement;
  return text;
}

TEST_P(RoundTripFuzzTest, CorruptedGranularBallsNeverCrash) {
  const Dataset ds = RandomDataset(4000 + GetParam());
  RdGbgConfig cfg;
  cfg.seed = 4500 + GetParam();
  const std::string text = GranularBallsToString(GenerateRdGbg(ds, cfg).balls);
  Pcg32 rng(4600 + GetParam());

  // The ball format carries no checksum, so a corrupted artifact may
  // still parse; the contract is a descriptive Status or a structurally
  // sound set (indices in range, finite geometry), never UB.
  for (int trial = 0; trial < 24; ++trial) {
    const bool truncate = trial % 2 == 0;
    const std::string corrupt =
        truncate ? text.substr(0, rng.NextBounded(
                                      static_cast<std::uint32_t>(text.size())))
                 : FlipByte(text, rng.NextBounded(static_cast<std::uint32_t>(
                                      text.size())),
                            &rng);
    const StatusOr<GranularBallSet> loaded = GranularBallsFromString(corrupt);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
      continue;
    }
    // Parsed despite corruption: every index the parser admitted must be
    // safe to traverse.
    for (const GranularBall& ball : loaded->balls()) {
      EXPECT_GE(ball.radius, 0.0);
      for (double c : ball.center) EXPECT_TRUE(std::isfinite(c));
      for (int m : ball.members) {
        EXPECT_GE(m, 0);
        EXPECT_LT(m, loaded->scaled_features().rows());
      }
    }
    loaded->CheckContainment();
    loaded->CheckNonOverlap();
    loaded->CheckDisjointMembership(loaded->scaled_features().rows());
  }
}

TEST_P(RoundTripFuzzTest, ModelRoundTripIsExactAndCorruptionIsRejected) {
  const Dataset ds = RandomDataset(5000 + GetParam());
  KnnClassifier model(1 + GetParam() % 5);
  Pcg32 fit_rng(1);
  model.Fit(ds, &fit_rng);
  const std::string text = ModelToString(model);

  // Clean round trip restores the exact training set.
  const StatusOr<LoadedModel> loaded = ModelFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->classifier->PredictBatch(ds.x()),
            model.PredictBatch(ds.x()));

  // The model format is checksummed: any strict truncation or byte flip
  // must be rejected (not merely tolerated).
  Pcg32 rng(5600 + GetParam());
  for (int trial = 0; trial < 24; ++trial) {
    std::string corrupt;
    if (trial % 2 == 0) {
      // Keep at least one byte off the end so the artifact really is
      // damaged (the final newline is load-bearing for the checksum
      // line's hex token, cut anywhere before it).
      corrupt = text.substr(
          0, rng.NextBounded(static_cast<std::uint32_t>(text.size() - 1)));
    } else {
      corrupt = FlipByte(
          text, rng.NextBounded(static_cast<std::uint32_t>(text.size())),
          &rng);
    }
    const StatusOr<LoadedModel> bad = ModelFromString(corrupt);
    EXPECT_FALSE(bad.ok()) << "corrupted artifact (trial " << trial
                           << ") parsed";
    if (!bad.ok()) {
      EXPECT_FALSE(bad.status().message().empty());
    }
  }
}

// The index-strategy knob is runtime state, never persisted: a gbx-model
// artifact saved from a tree-strategy GB-kNN must be byte-identical to
// one saved from a flat-strategy fit, and must load and predict
// bit-identically in a process that serves it with the flat strategy
// (and vice versa).
TEST_P(RoundTripFuzzTest, GbKnnArtifactIsIndexStrategyAgnostic) {
  const Dataset ds = RandomDataset(6000 + GetParam());
  RdGbgConfig gbg;
  gbg.seed = 6500 + GetParam();
  gbg.index_strategy = IndexStrategy::kTree;
  GbKnnClassifier tree_model(gbg, 1 + GetParam() % 4);
  Pcg32 fit_rng_tree(2);
  tree_model.Fit(ds, &fit_rng_tree);
  ASSERT_EQ(tree_model.resolved_index_strategy(), IndexStrategy::kTree);

  gbg.index_strategy = IndexStrategy::kFlat;
  GbKnnClassifier flat_model(gbg, 1 + GetParam() % 4);
  Pcg32 fit_rng_flat(2);
  flat_model.Fit(ds, &fit_rng_flat);

  // Same granulation, same artifact — the strategy never reaches disk.
  const std::string text = ModelToString(tree_model);
  ASSERT_EQ(text, ModelToString(flat_model));

  // Serve the tree-trained artifact with the flat strategy ...
  const StatusOr<LoadedModel> loaded = ModelFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto* restored = dynamic_cast<GbKnnClassifier*>(loaded->classifier.get());
  ASSERT_NE(restored, nullptr);
  restored->set_index_strategy(IndexStrategy::kFlat);
  const std::vector<int> expected = tree_model.PredictBatch(ds.x());
  EXPECT_EQ(restored->PredictBatch(ds.x()), expected);

  // ... and with each tree backend; predictions stay bit-identical.
  restored->set_index_strategy(IndexStrategy::kTree);
  ASSERT_EQ(restored->resolved_index_strategy(), IndexStrategy::kTree);
  EXPECT_EQ(restored->PredictBatch(ds.x()), expected);
  restored->set_index_strategy(IndexStrategy::kBallTree);
  ASSERT_EQ(restored->resolved_index_strategy(), IndexStrategy::kBallTree);
  EXPECT_EQ(restored->PredictBatch(ds.x()), expected);

  // A ball-tree-strategy fit writes the same bytes too.
  gbg.index_strategy = IndexStrategy::kBallTree;
  GbKnnClassifier ball_model(gbg, 1 + GetParam() % 4);
  Pcg32 fit_rng_ball(2);
  ball_model.Fit(ds, &fit_rng_ball);
  ASSERT_EQ(ball_model.resolved_index_strategy(), IndexStrategy::kBallTree);
  EXPECT_EQ(ModelToString(ball_model), text);
}

// The SIMD dispatch level is pure runtime state with a bit-exactness
// contract (src/simd/simd.h): an artifact trained under ANY dispatch
// level must be byte-identical to one trained under every other level
// the host supports, and a model restored from it must predict
// bit-identically whichever level serves it. This is what makes a
// heterogeneous fleet (AVX-512 trainers, AVX2 or scalar servers — or
// GBX_SIMD=scalar canaries) safe.
TEST_P(RoundTripFuzzTest, GbKnnArtifactIsSimdLevelAgnostic) {
  const Dataset ds = RandomDataset(7000 + GetParam());
  RdGbgConfig gbg;
  gbg.seed = 7500 + GetParam();

  struct PerLevel {
    simd::Level level;
    std::string artifact;
    std::vector<int> predictions;
  };
  std::vector<PerLevel> runs;
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kNeon,
                            simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::Supported(level)) continue;
    simd::SetLevelForTest(level);
    GbKnnClassifier model(gbg, 1 + GetParam() % 4);
    Pcg32 fit_rng(3);
    model.Fit(ds, &fit_rng);
    runs.push_back({level, ModelToString(model), model.PredictBatch(ds.x())});
  }
  simd::ReresolveFromEnvForTest();
  ASSERT_GE(runs.size(), 1u);  // scalar always runs

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].artifact, runs[0].artifact)
        << simd::LevelName(runs[i].level) << " vs "
        << simd::LevelName(runs[0].level);
    EXPECT_EQ(runs[i].predictions, runs[0].predictions)
        << simd::LevelName(runs[i].level);
  }

  // Cross-serve: restore the first level's artifact, predict under each
  // other level.
  const StatusOr<LoadedModel> loaded = ModelFromString(runs[0].artifact);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const PerLevel& run : runs) {
    simd::SetLevelForTest(run.level);
    EXPECT_EQ(loaded->classifier->PredictBatch(ds.x()), runs[0].predictions)
        << "served under " << simd::LevelName(run.level);
  }
  simd::ReresolveFromEnvForTest();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace gbx
