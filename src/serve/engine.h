// Batched inference engine: the online half of the serving subsystem.
//
// An InferenceEngine owns one loaded model (serve/model_io.h) and serves
// Predict() calls from any number of caller threads. Concurrent requests
// are coalesced into micro-batches: the first caller into an empty batch
// becomes its *leader* and waits up to `max_batch_delay_ms` for
// followers (or until the batch holds `max_batch_size` queries), then
// dispatches the whole batch through Classifier::PredictBatch — which
// fans the independent queries out over the shared thread pool
// (common/parallel.h) — and wakes the followers with their labels.
//
// Each query's label depends only on the model and the query, never on
// which micro-batch it landed in, so engine output is identical to a
// serial Predict() loop at any thread count and any batching window
// (enforced by tests/serve_test.cc).
//
// The engine keeps no counts of its own: every request, batch, latency
// and compute time goes to the process-wide metrics registry
// (common/metrics.h, the gbx_engine_* families), which "!metrics",
// "!stat" and gbx_serve's summaries read. Those series are cumulative
// process totals over every engine, not per-instance views.
#ifndef GBX_SERVE_ENGINE_H_
#define GBX_SERVE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "serve/model_io.h"

namespace gbx {

struct InferenceEngineOptions {
  /// A micro-batch is dispatched as soon as it holds this many queries.
  int max_batch_size = 64;
  /// How long a batch leader waits for followers before dispatching a
  /// partial batch. 0 disables coalescing (every request dispatches
  /// immediately).
  double max_batch_delay_ms = 0.2;
};

/// Per-request latency attribution filled in by Predict() when the
/// caller passes a non-null out-param (the serving front-end attaches
/// these to its request traces — common/trace.h).
struct PredictTiming {
  /// Enqueue into the micro-batch -> the batch's dispatch began
  /// (leader coalescing wait, from this request's perspective).
  double batch_assembly_ms = 0.0;
  /// Classifier::PredictBatch duration for the batch this request rode.
  double compute_ms = 0.0;
  /// Queries in that batch.
  int batch_size = 0;
};

class InferenceEngine {
 public:
  /// Takes ownership of the loaded model. `model.classifier` must be
  /// non-null and `model.dims` positive.
  explicit InferenceEngine(LoadedModel model,
                           InferenceEngineOptions options = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Predicts the label of one query of `dims` doubles. Safe to call
  /// from any number of threads concurrently; blocks until the query's
  /// micro-batch has been dispatched. Rejects wrong-arity and
  /// non-finite queries with InvalidArgument instead of poisoning the
  /// batch.
  StatusOr<int> Predict(const double* x, int dims,
                        PredictTiming* timing = nullptr);
  StatusOr<int> Predict(const std::vector<double>& x) {
    return Predict(x.data(), static_cast<int>(x.size()));
  }

  /// Whole-batch entry point for callers that already hold a batch
  /// (bulk scoring, the CLI's CSV path). Bypasses coalescing — the
  /// matrix is dispatched as one batch — but is counted in the
  /// gbx_engine_* series like coalesced requests.
  StatusOr<std::vector<int>> PredictBatch(const Matrix& x);

  const Classifier& classifier() const { return *model_.classifier; }
  const LoadedModel& model() const { return model_; }
  int dims() const { return model_.dims; }
  int num_classes() const { return model_.num_classes; }
  const InferenceEngineOptions& options() const { return options_; }

 private:
  struct MicroBatch {
    std::vector<double> queries;  // count x dims, row-major
    int count = 0;
    bool closed = false;  // no longer accepting followers
    bool done = false;    // labels are ready
    std::vector<int> labels;
    std::chrono::steady_clock::time_point created_tp{};
    std::chrono::steady_clock::time_point dispatch_tp{};
    double compute_ms = 0.0;  // PredictBatch duration (set with done)
  };

  /// Validates query arity and finiteness.
  Status ValidateQuery(const double* x, int dims) const;

  /// Runs `batch` through the model and publishes the labels.
  void Dispatch(const std::shared_ptr<MicroBatch>& batch);

  LoadedModel model_;
  InferenceEngineOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<MicroBatch> pending_;  // open batch accepting queries

  // Registry families (process totals). Cached at construction; owned
  // by MetricsRegistry::Default().
  metrics::Counter* m_requests_;
  metrics::Counter* m_batches_;
  metrics::Histogram* m_latency_ms_;
  metrics::Histogram* m_batch_size_;
  metrics::Histogram* m_coalesce_delay_ms_;
  metrics::Histogram* m_compute_ms_;
};

}  // namespace gbx

#endif  // GBX_SERVE_ENGINE_H_
