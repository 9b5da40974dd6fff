// Shared fixture for the serving test batteries (serve_test.cc,
// server_test.cc, hot_swap_test.cc, protocol_fuzz_test.cc,
// chaos_test.cc): one place that fits paper-suite models, turns them
// into artifacts/LoadedModels, runs concurrent caller threads — honoring
// GBX_THREADS, so the determinism and asan CI legs (GBX_THREADS=4) drive
// every suite with the same concurrency instead of per-test ad-hoc
// thread counts — and reads serving counts from the metrics registry.
#ifndef GBX_TESTS_SERVE_TEST_UTIL_H_
#define GBX_TESTS_SERVE_TEST_UTIL_H_

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/parallel.h"
#include "data/paper_suite.h"
#include "data/split.h"
#include "ml/gb_knn.h"
#include "ml/knn.h"
#include "serve/engine.h"
#include "serve/model_io.h"
#include "serve/protocol.h"

namespace gbx {
namespace servetest {

/// Concurrent caller/client thread count: GBX_THREADS when set (the CI
/// determinism legs pin it to 4), otherwise hardware — clamped to
/// [2, 8] so the suites always exercise real concurrency but never
/// oversubscribe a CI runner.
inline int CallerThreads() { return std::clamp(DefaultNumThreads(), 2, 8); }

/// The engine options every serving test starts from: small batches and
/// a real coalescing window, so micro-batching actually happens under
/// concurrent callers.
inline InferenceEngineOptions SmallBatchOptions() {
  InferenceEngineOptions opts;
  opts.max_batch_size = 16;
  opts.max_batch_delay_ms = 0.5;
  return opts;
}

/// One fitted model, its artifact, and its ground-truth predictions.
struct ModelBundle {
  TrainTestSplitResult split;
  std::string artifact;       // ModelToString text (checksummed)
  std::uint64_t checksum = 0; // the artifact's FNV-1a-64
  std::vector<int> expected;  // fitted model's PredictBatch over split.test
};

/// Deterministic split shared by every bundle of the same id/max_samples.
inline TrainTestSplitResult SuiteSplit(const std::string& id,
                                       int max_samples = 400) {
  const Dataset ds = MakePaperDataset(id, max_samples, 9);
  Pcg32 rng(11);
  return TrainTestSplit(ds, 0.3, &rng);
}

/// Fits GB-kNN on a paper-suite split. Different (k, gbg_seed) pairs
/// yield models that disagree on some holdout queries — what the
/// hot-swap battery needs to tell versions apart.
inline ModelBundle MakeGbKnnBundle(const std::string& id, int k = 3,
                                   std::uint64_t gbg_seed = 17,
                                   int max_samples = 400) {
  ModelBundle b;
  b.split = SuiteSplit(id, max_samples);
  RdGbgConfig gbg;
  gbg.seed = gbg_seed;
  GbKnnClassifier model(gbg, k);
  Pcg32 fit_rng(5);
  model.Fit(b.split.train, &fit_rng);
  b.expected = model.PredictBatch(b.split.test.x());
  b.artifact = ModelToString(model);
  StatusOr<LoadedModel> loaded = ModelFromString(b.artifact);
  GBX_CHECK_MSG(loaded.ok(), "test bundle artifact must load");
  b.checksum = loaded->checksum;
  return b;
}

inline ModelBundle MakeKnnBundle(const std::string& id, int k = 5,
                                 int max_samples = 400) {
  ModelBundle b;
  b.split = SuiteSplit(id, max_samples);
  KnnClassifier model(k);
  Pcg32 fit_rng(5);
  model.Fit(b.split.train, &fit_rng);
  b.expected = model.PredictBatch(b.split.test.x());
  b.artifact = ModelToString(model);
  StatusOr<LoadedModel> loaded = ModelFromString(b.artifact);
  GBX_CHECK_MSG(loaded.ok(), "test bundle artifact must load");
  b.checksum = loaded->checksum;
  return b;
}

inline LoadedModel LoadBundle(const ModelBundle& b) {
  StatusOr<LoadedModel> loaded = ModelFromString(b.artifact);
  GBX_CHECK_MSG(loaded.ok(), "test bundle artifact must load");
  return std::move(loaded).value();
}

/// Base fixture for engine-level tests: build an engine from a bundle
/// and predict with CallerThreads() concurrent callers.
class ServeTestBase : public ::testing::Test {
 protected:
  static std::unique_ptr<InferenceEngine> MakeEngine(
      const ModelBundle& bundle,
      InferenceEngineOptions opts = SmallBatchOptions()) {
    return std::make_unique<InferenceEngine>(LoadBundle(bundle), opts);
  }

  /// Predicts every row of `test` through engine->Predict from
  /// CallerThreads() striding threads. Every call must succeed.
  static std::vector<int> ConcurrentPredict(InferenceEngine* engine,
                                            const Dataset& test) {
    const int n = test.size();
    const int callers = CallerThreads();
    std::vector<int> got(n, -1);
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (int t = 0; t < callers; ++t) {
      threads.emplace_back([&, t] {
        for (int i = t; i < n; i += callers) {
          const StatusOr<int> label =
              engine->Predict(test.row(i), test.num_features());
          ASSERT_TRUE(label.ok()) << label.status().ToString();
          got[i] = *label;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    return got;
  }
};

// --- socket-side helpers (server_test, hot_swap_test, protocol_fuzz) ---

/// Blocking gbx-wire client over one TCP connection.
class TestClient {
 public:
  explicit TestClient(int port, const std::string& host = "127.0.0.1",
                      double timeout_s = 10.0) {
    StatusOr<int> fd = ConnectTcp(host, port, timeout_s);
    GBX_CHECK_MSG(fd.ok(), "test client could not connect");
    fd_ = *fd;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  Status Send(std::string_view payload) { return SendFrame(fd_, payload); }
  StatusOr<std::string> Recv() { return RecvFrame(fd_); }
  StatusOr<std::string> Call(std::string_view payload) {
    GBX_RETURN_IF_ERROR(Send(payload));
    return Recv();
  }

  /// Raw bytes, bypassing framing — the fuzz battery's hammer.
  Status SendRaw(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t w = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
      if (w > 0) {
        sent += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        return Status::Internal("send failed");
      }
    }
    return Status::Ok();
  }

  int fd() const { return fd_; }
  /// Hard close without a goodbye — mid-frame disconnect simulation.
  void CloseAbruptly() {
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// A parsed "ok LABEL fnv1a CHECKSUM16" predict reply.
struct PredictReply {
  int label = -1;
  std::uint64_t checksum = 0;
};

inline StatusOr<PredictReply> ParsePredictReply(const std::string& payload) {
  PredictReply reply;
  unsigned long long checksum = 0;
  if (std::sscanf(payload.c_str(), "ok %d fnv1a %16llx", &reply.label,
                  &checksum) != 2) {
    return Status::Internal("unexpected predict reply: " + payload);
  }
  reply.checksum = checksum;
  return reply;
}

// --- serving counts: the process-wide metrics registry ---------------

/// Value of `series` in a Prometheus text scrape: the family name plus
/// its label block, exactly as "!metrics prom" prints it (e.g.
/// `gbx_server_requests_total{result="ok"}`, `gbx_engine_request_ms_count`).
/// nullopt when the scrape has no such series.
inline std::optional<double> ScrapedValue(const std::string& scrape,
                                          const std::string& series) {
  const std::string key = series + " ";
  std::istringstream in(scrape);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stod(line.substr(key.size()));
    }
  }
  return std::nullopt;
}

/// Before/after reader of the metrics registry, the only store of
/// serving counts. Its series are totals over every engine and server
/// in the process, and a ctest entry runs a whole test binary, so a
/// test constructs one before its traffic and asserts on the growth —
/// the pattern gbxbench's traced layer table uses. Every series reads 0
/// when metrics are compiled out (!metrics::kCompiledIn), so count
/// assertions skip there.
class RegistryDelta {
 public:
  RegistryDelta() : before_(Scrape()) {}

  static std::string Scrape() {
    return metrics::MetricsRegistry::Default().PrometheusText();
  }

  /// `series` at construction; 0 if it was not registered yet.
  double Before(const std::string& series) const {
    return ScrapedValue(before_, series).value_or(0.0);
  }

  /// Growth of `series` since construction. A series missing from the
  /// current scrape (a misspelt name) fails the test.
  double operator()(const std::string& series) const {
    const std::optional<double> now = ScrapedValue(Scrape(), series);
    EXPECT_TRUE(now.has_value()) << "no series " << series;
    return now.value_or(0.0) - Before(series);
  }

 private:
  std::string before_;
};

/// The "FIELD VALUE" pairs that follow "ok stats NAME vN" in a "!stat"
/// reply, keyed by field.
inline std::map<std::string, std::string> StatFields(const std::string& reply) {
  std::istringstream in(reply);
  std::string ok, stats, name, version, field, value;
  in >> ok >> stats >> name >> version;
  std::map<std::string, std::string> fields;
  while (in >> field >> value) fields[field] = value;
  return fields;
}

/// One count of a "!stat" reply; NaN (never equal) when it is missing.
inline double StatCount(const std::string& reply, const std::string& field) {
  const std::map<std::string, std::string> fields = StatFields(reply);
  const auto it = fields.find(field);
  EXPECT_NE(it, fields.end()) << "no field " << field << " in " << reply;
  return it == fields.end() ? std::nan("") : std::stod(it->second);
}

}  // namespace servetest
}  // namespace gbx

#endif  // GBX_TESTS_SERVE_TEST_UTIL_H_
