// The serving subsystem's acceptance gates: a gbx-model artifact
// round-trips a trained classifier with bit-identical PredictBatch
// output, the InferenceEngine matches a serial Predict loop under
// concurrent callers, artifacts are validated strictly on load, and the
// fit-before-predict contract aborts with a message.
//
// Engine concurrency cases run on the shared servetest fixture
// (tests/serve_test_util.h), so the caller count honors GBX_THREADS like
// the rest of the serving battery.
#include <cstdio>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/paper_suite.h"
#include "data/split.h"
#include "ml/decision_tree.h"
#include "serve/engine.h"
#include "serve/model_io.h"
#include "serve_test_util.h"
#include "simd/simd.h"

namespace gbx {
namespace {

using servetest::SuiteSplit;

GbKnnClassifier FittedGbKnn(const Dataset& train, int k = 3) {
  RdGbgConfig gbg;
  gbg.seed = 17;
  GbKnnClassifier model(gbg, k);
  Pcg32 rng(5);
  model.Fit(train, &rng);
  return model;
}

std::string WithChecksum(const std::string& body) {
  char line[64];
  std::snprintf(line, sizeof(line), "checksum fnv1a %016llx\n",
                static_cast<unsigned long long>(Fnv1a64(body)));
  return body + line;
}

// --- model_io: round trips ---

TEST(ModelIoTest, GbKnnRoundTripIsBitIdentical) {
  // Two paper-suite datasets with different geometry/arity.
  for (const std::string id : {"S1", "S5"}) {
    const TrainTestSplitResult split = SuiteSplit(id);
    const GbKnnClassifier model = FittedGbKnn(split.train);
    const std::vector<int> expected = model.PredictBatch(split.test.x());

    const StatusOr<LoadedModel> loaded =
        ModelFromString(ModelToString(model));
    ASSERT_TRUE(loaded.ok()) << id << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->kind, "gb-knn");
    EXPECT_EQ(loaded->dims, split.train.num_features());
    EXPECT_EQ(loaded->num_classes, split.train.num_classes());
    EXPECT_EQ(loaded->classifier->PredictBatch(split.test.x()), expected)
        << id;
  }
}

TEST(ModelIoTest, KnnRoundTripIsBitIdentical) {
  for (const std::string id : {"S2", "S5"}) {
    const TrainTestSplitResult split = SuiteSplit(id);
    KnnClassifier model(5);
    Pcg32 rng(5);
    model.Fit(split.train, &rng);
    const std::vector<int> expected = model.PredictBatch(split.test.x());

    const StatusOr<LoadedModel> loaded =
        ModelFromString(ModelToString(model));
    ASSERT_TRUE(loaded.ok()) << id << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->kind, "knn");
    EXPECT_EQ(loaded->classifier->PredictBatch(split.test.x()), expected)
        << id;
  }
}

TEST(ModelIoTest, FileRoundTripThroughBaseClassDispatch) {
  const TrainTestSplitResult split = SuiteSplit("S5");
  const GbKnnClassifier model = FittedGbKnn(split.train);
  const Classifier& as_base = model;
  const std::string path = ::testing::TempDir() + "/gbx_model_test.gbx";
  ASSERT_TRUE(SaveModel(as_base, path).ok());
  const StatusOr<LoadedModel> loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->classifier->PredictBatch(split.test.x()),
            model.PredictBatch(split.test.x()));
  std::remove(path.c_str());
}

TEST(ModelIoTest, UnsupportedClassifierIsInvalidArgument) {
  const TrainTestSplitResult split = SuiteSplit("S5");
  DecisionTreeClassifier dt;
  Pcg32 rng(5);
  dt.Fit(split.train, &rng);
  const Status status =
      SaveModel(static_cast<const Classifier&>(dt), "/tmp/unused.gbx");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, LoadMissingFileIsNotFound) {
  EXPECT_EQ(LoadModel("/no/such/model.gbx").status().code(),
            StatusCode::kNotFound);
}

// --- model_io: artifacts committed under tests/data ---
//
// Written by `gbx_serve train --dataset S5 --max-samples 400 --seed 7`
// (with `--model knn --k 3` for the kNN one) before number text moved
// from iostreams to common/num_text.h, together with the holdout queries
// and the labels the fitted models gave them. Old artifacts must keep
// loading, predicting the same labels, and saving back byte for byte —
// so the checksum a server tags its replies with never changes.

std::string ReadTestData(const std::string& name) {
  const std::string path = std::string(GBX_TEST_DATA_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

TEST(ModelIoTest, CommittedArtifactsLoadPredictAndResaveByteIdentical) {
  const std::string queries = ReadTestData("s5_queries.csv");
  ASSERT_FALSE(queries.empty());
  Matrix x(0, 2);
  std::istringstream lines(queries);
  for (std::string line; std::getline(lines, line);) {
    std::string model_name;
    std::vector<double> row;
    ASSERT_TRUE(ParsePredictPayload(line, &model_name, &row).ok()) << line;
    ASSERT_EQ(row.size(), 2u);
    x.AppendRow(row.data(), 2);
  }
  ASSERT_EQ(x.rows(), 119);

  const struct {
    const char* kind;
    std::uint64_t checksum;
  } fixtures[] = {{"gbknn", 0xfdd611a6db2ec3e8ull},
                  {"knn", 0xde40e38fdd209367ull}};
  for (const auto& fixture : fixtures) {
    const std::string stem = std::string("s5_") + fixture.kind + "_v1";
    const std::string text = ReadTestData(stem + ".gbxm");
    const StatusOr<LoadedModel> loaded =
        LoadModel(std::string(GBX_TEST_DATA_DIR) + "/" + stem + ".gbxm");
    ASSERT_TRUE(loaded.ok()) << stem << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->checksum, fixture.checksum) << stem;

    std::string expected;
    for (const int label : loaded->classifier->PredictBatch(x)) {
      expected += std::to_string(label) + "\n";
    }
    EXPECT_EQ(expected, ReadTestData(stem + ".expected")) << stem;

    const Classifier& model = *loaded->classifier;
    const std::string resaved =
        loaded->kind == "gb-knn"
            ? ModelToString(dynamic_cast<const GbKnnClassifier&>(model))
            : ModelToString(dynamic_cast<const KnnClassifier&>(model));
    EXPECT_TRUE(resaved == text) << stem << " re-saved differently";
  }
}

// --- model_io: strict validation ---

TEST(ModelIoTest, EveryTruncationIsRejected) {
  const TrainTestSplitResult split = SuiteSplit("S5");
  const std::string text = ModelToString(FittedGbKnn(split.train));
  for (int i = 1; i <= 60; ++i) {
    const std::size_t cut = text.size() * i / 61;
    EXPECT_FALSE(ModelFromString(text.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(ModelIoTest, EveryBitFlipIsRejectedByChecksum) {
  const TrainTestSplitResult split = SuiteSplit("S1");
  KnnClassifier model(5);
  Pcg32 rng(5);
  model.Fit(split.train, &rng);
  const std::string text = ModelToString(model);
  for (int i = 0; i < 60; ++i) {
    const std::size_t pos = text.size() * i / 60;
    std::string corrupt = text;
    corrupt[pos] = corrupt[pos] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(ModelFromString(corrupt).ok())
        << "flip at byte " << pos << " parsed";
  }
}

TEST(ModelIoTest, RejectsNonFiniteTrainingFeature) {
  const std::string body =
      "gbx-model v1\n"
      "classifier knn\n"
      "config k 1\n"
      "classes 2 dims 2\n"
      "data 2\n"
      "0.0 nan 0\n"
      "1.0 1.0 1\n";
  // "nan" either parses to a NaN (libc++) or fails the stream
  // (libstdc++); both must yield a descriptive error.
  const StatusOr<LoadedModel> loaded = ModelFromString(WithChecksum(body));
  ASSERT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.status().message().empty());
}

TEST(ModelIoTest, RejectsLabelOutOfRange) {
  const std::string body =
      "gbx-model v1\n"
      "classifier knn\n"
      "config k 1\n"
      "classes 2 dims 1\n"
      "data 2\n"
      "0.0 0\n"
      "1.0 7\n";
  EXPECT_EQ(ModelFromString(WithChecksum(body)).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ModelIoTest, RejectsHugeDeclaredSizesWithoutAllocating) {
  // A crafted header promising petabytes must fail fast, not allocate.
  const std::string body =
      "gbx-model v1\n"
      "classifier knn\n"
      "config k 1\n"
      "classes 2 dims 1000000\n"
      "data 1000000000\n"
      "0.0 0\n";
  EXPECT_FALSE(ModelFromString(WithChecksum(body)).ok());
}

TEST(ModelIoTest, RejectsTrailingGarbageInsidePayload) {
  // Garbage between the rows and the (correct) checksum line.
  const std::string body =
      "gbx-model v1\n"
      "classifier knn\n"
      "config k 1\n"
      "classes 2 dims 1\n"
      "data 2\n"
      "0.0 0\n"
      "1.0 1\n"
      "GARBAGE\n";
  EXPECT_FALSE(ModelFromString(WithChecksum(body)).ok());
}

TEST(ModelIoTest, RejectsNegativeRadiusInEmbeddedBalls) {
  const std::string body =
      "gbx-model v1\n"
      "classifier gb-knn\n"
      "config k 1 rho 5 seed 1\n"
      "classes 2 dims 1\n"
      "scaler minmax\n"
      "0.0\n"
      "1.0\n"
      "balls\n"
      "gbx-granular-balls v1\n"
      "dims 1 classes 2 balls 1 samples 2\n"
      "ball 0 -0.5 0 0.5 members 1 0\n"
      "features\n0.0\n1.0\n";
  const StatusOr<LoadedModel> loaded = ModelFromString(WithChecksum(body));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("radius"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelIoTest, RejectsBallDimensionMismatch) {
  // Header says dims 2 (and the scaler has 2 features) but the embedded
  // ball set is 1-dimensional.
  const std::string body =
      "gbx-model v1\n"
      "classifier gb-knn\n"
      "config k 1 rho 5 seed 1\n"
      "classes 2 dims 2\n"
      "scaler minmax\n"
      "0.0 0.0\n"
      "1.0 1.0\n"
      "balls\n"
      "gbx-granular-balls v1\n"
      "dims 1 classes 2 balls 1 samples 2\n"
      "ball 0 0.5 0 0.5 members 1 0\n"
      "features\n0.0\n1.0\n";
  const StatusOr<LoadedModel> loaded = ModelFromString(WithChecksum(body));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("dims"), std::string::npos)
      << loaded.status().ToString();
}

// --- InferenceEngine (on the shared GBX_THREADS-honoring fixture) ---

using EngineTest = servetest::ServeTestBase;

TEST_F(EngineTest, MatchesSerialPredictUnderConcurrentCallers) {
  const servetest::ModelBundle bundle = servetest::MakeGbKnnBundle("S5");
  const std::unique_ptr<InferenceEngine> engine = MakeEngine(bundle);
  const servetest::RegistryDelta delta;

  const std::vector<int> got =
      ConcurrentPredict(engine.get(), bundle.split.test);
  EXPECT_EQ(got, bundle.expected);

  if (metrics::kCompiledIn) {
    const int n = bundle.split.test.size();
    const double requests = delta("gbx_engine_requests_total");
    const double batches = delta("gbx_engine_batches_total");
    EXPECT_EQ(requests, n);
    EXPECT_GE(batches, 1);
    EXPECT_LE(batches, requests);
    // Each query rode exactly one batch and was timed once.
    EXPECT_EQ(delta("gbx_engine_batch_size_sum"), n);
    EXPECT_EQ(delta("gbx_engine_request_ms_count"), n);
    EXPECT_GT(delta("gbx_engine_request_ms_sum"), 0.0);
    const metrics::HistogramSnapshot latency =
        metrics::MetricsRegistry::Default()
            .GetHistogram("gbx_engine_request_ms")
            ->Snapshot();
    EXPECT_GE(latency.Quantile(0.99), latency.Quantile(0.50));
    EXPECT_GE(latency.max, latency.Quantile(0.99));
  }
}

TEST_F(EngineTest, DirectBatchPathMatchesAndCounts) {
  const servetest::ModelBundle bundle = servetest::MakeGbKnnBundle("S1");
  const std::unique_ptr<InferenceEngine> engine =
      MakeEngine(bundle, InferenceEngineOptions{});
  const servetest::RegistryDelta delta;

  const StatusOr<std::vector<int>> got =
      engine->PredictBatch(bundle.split.test.x());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, bundle.expected);
  if (metrics::kCompiledIn) {
    EXPECT_EQ(delta("gbx_engine_requests_total"), bundle.split.test.size());
    EXPECT_EQ(delta("gbx_engine_batches_total"), 1);
  }
}

// An artifact trained under whatever level fitted the bundle must serve
// bit-identically under EVERY dispatch level the host supports — the
// end-to-end half of the simd kernel contract: same artifact, same
// engine, forced level, identical labels under concurrent callers.
TEST_F(EngineTest, ServesIdenticallyUnderEveryDispatchLevel) {
  const servetest::ModelBundle bundle = servetest::MakeGbKnnBundle("S5");
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kNeon,
                            simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::Supported(level)) continue;
    simd::SetLevelForTest(level);
    const std::unique_ptr<InferenceEngine> engine = MakeEngine(bundle);
    EXPECT_EQ(ConcurrentPredict(engine.get(), bundle.split.test),
              bundle.expected)
        << "level " << simd::LevelName(level);
  }
  simd::ReresolveFromEnvForTest();
}

TEST_F(EngineTest, RejectsMalformedQueriesAndKeepsServing) {
  const servetest::ModelBundle bundle = servetest::MakeGbKnnBundle("S5");
  const std::unique_ptr<InferenceEngine> engine =
      MakeEngine(bundle, InferenceEngineOptions{});

  const std::vector<double> wrong_arity(engine->dims() + 1, 0.0);
  EXPECT_EQ(engine->Predict(wrong_arity).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<double> with_nan(engine->dims(), 0.0);
  with_nan[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine->Predict(with_nan).status().code(),
            StatusCode::kInvalidArgument);

  // Rejected queries never reach a batch; good queries still work.
  EXPECT_TRUE(engine
                  ->Predict(bundle.split.test.row(0),
                            bundle.split.test.num_features())
                  .ok());
}

// --- fit-before-predict contract ---

TEST(FitContractTest, PredictBeforeFitAbortsWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> x(4, 0.0);
  EXPECT_DEATH(GbKnnClassifier().Predict(x.data()), "before Fit");
  EXPECT_DEATH(KnnClassifier().Predict(x.data()), "before Fit");
  EXPECT_DEATH(DecisionTreeClassifier().Predict(x.data()), "before Fit");
}

}  // namespace
}  // namespace gbx
