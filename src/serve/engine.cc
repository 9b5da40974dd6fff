#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/failpoint.h"
#include "common/stopwatch.h"

namespace gbx {

namespace {

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

InferenceEngine::InferenceEngine(LoadedModel model,
                                 InferenceEngineOptions options)
    : model_(std::move(model)), options_(options) {
  GBX_CHECK_MSG(model_.classifier != nullptr,
                "InferenceEngine needs a loaded classifier");
  GBX_CHECK_GT(model_.dims, 0);
  options_.max_batch_size = std::max(1, options_.max_batch_size);
  auto& reg = metrics::MetricsRegistry::Default();
  m_requests_ = reg.GetCounter("gbx_engine_requests_total", {},
                               "Predictions served by inference engines");
  m_batches_ = reg.GetCounter("gbx_engine_batches_total", {},
                              "Micro-batches dispatched");
  m_latency_ms_ =
      reg.GetHistogram("gbx_engine_request_ms", {},
                       "Predict latency: enqueue to label available (ms)");
  m_batch_size_ = reg.GetHistogram(
      "gbx_engine_batch_size", {}, "Queries per dispatched micro-batch",
      metrics::Histogram::ExponentialBounds(1.0, 2.0, 12));
  m_coalesce_delay_ms_ =
      reg.GetHistogram("gbx_engine_coalesce_delay_ms", {},
                       "Batch open to dispatch: leader coalescing wait (ms)");
  m_compute_ms_ = reg.GetHistogram(
      "gbx_engine_compute_ms", {}, "Classifier::PredictBatch duration (ms)");
}

Status InferenceEngine::ValidateQuery(const double* x, int dims) const {
  if (dims != model_.dims) {
    return Status::InvalidArgument(
        "query has " + std::to_string(dims) + " features, model expects " +
        std::to_string(model_.dims));
  }
  for (int j = 0; j < dims; ++j) {
    if (!std::isfinite(x[j])) {
      return Status::InvalidArgument("non-finite query feature " +
                                     std::to_string(j));
    }
  }
  return Status::Ok();
}

StatusOr<int> InferenceEngine::Predict(const double* x, int dims,
                                       PredictTiming* timing) {
  // Chaos site: "engine.predict" with delay(ms) stretches the predict
  // path (overload/deadline batteries); error fails the prediction.
  GBX_FAILPOINT_RETURN_ERROR("engine.predict");
  // Chaos site: delay(ms) here stalls the *calling worker thread*
  // inside the predict path — the watchdog battery's stuck-worker
  // simulation (tests/chaos_test.cc, the CI health smoke).
  GBX_FAILPOINT("engine.predict.stall");
  GBX_RETURN_IF_ERROR(ValidateQuery(x, dims));
  Stopwatch watch;
  const auto entry_tp = std::chrono::steady_clock::now();

  std::shared_ptr<MicroBatch> batch;
  int slot = 0;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ == nullptr) {
      pending_ = std::make_shared<MicroBatch>();
      pending_->created_tp = entry_tp;
      leader = true;
    }
    batch = pending_;
    slot = batch->count++;
    batch->queries.insert(batch->queries.end(), x, x + dims);
    if (batch->count >= options_.max_batch_size) {
      // Full: detach so the next arrival starts a fresh batch, and wake
      // the leader if it is still inside its coalescing window.
      batch->closed = true;
      pending_.reset();
      cv_.notify_all();
    }
  }

  if (leader) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!batch->closed && options_.max_batch_delay_ms > 0) {
        cv_.wait_for(
            lock,
            std::chrono::duration<double, std::milli>(
                options_.max_batch_delay_ms),
            [&] { return batch->closed; });
      }
      if (!batch->closed) {
        batch->closed = true;
        if (pending_ == batch) pending_.reset();
      }
    }
    Dispatch(batch);
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return batch->done; });
  }

  m_requests_->Inc();
  m_latency_ms_->Observe(watch.ElapsedMillis());
  if (timing != nullptr) {
    // `batch` is done: its timing fields are immutable now.
    timing->batch_assembly_ms =
        std::max(0.0, MsBetween(entry_tp, batch->dispatch_tp));
    timing->compute_ms = batch->compute_ms;
    timing->batch_size = batch->count;
  }
  return batch->labels[slot];
}

StatusOr<std::vector<int>> InferenceEngine::PredictBatch(const Matrix& x) {
  if (x.cols() != model_.dims && x.rows() > 0) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(x.cols()) +
        " features per row, model expects " + std::to_string(model_.dims));
  }
  for (int i = 0; i < x.rows(); ++i) {
    GBX_RETURN_IF_ERROR(ValidateQuery(x.Row(i), x.cols()));
  }
  if (x.rows() == 0) return std::vector<int>{};

  Stopwatch watch;
  std::vector<int> labels = model_.classifier->PredictBatch(x);
  const double ms = watch.ElapsedMillis();
  for (int i = 0; i < x.rows(); ++i) m_latency_ms_->Observe(ms);
  m_batches_->Inc();
  m_batch_size_->Observe(static_cast<double>(x.rows()));
  m_compute_ms_->Observe(ms);
  m_requests_->Inc(x.rows());
  return labels;
}

void InferenceEngine::Dispatch(const std::shared_ptr<MicroBatch>& batch) {
  // `batch` is closed: no appender can touch it anymore, so reading the
  // queries outside the lock is safe.
  const auto dispatch_tp = std::chrono::steady_clock::now();
  Matrix m(batch->count, model_.dims);
  std::copy(batch->queries.begin(), batch->queries.end(),
            m.mutable_data().begin());
  std::vector<int> labels = model_.classifier->PredictBatch(m);
  const double compute_ms =
      MsBetween(dispatch_tp, std::chrono::steady_clock::now());
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch->labels = std::move(labels);
    batch->dispatch_tp = dispatch_tp;
    batch->compute_ms = compute_ms;
    batch->done = true;
  }
  m_batches_->Inc();
  m_batch_size_->Observe(static_cast<double>(batch->count));
  m_coalesce_delay_ms_->Observe(
      std::max(0.0, MsBetween(batch->created_tp, dispatch_tp)));
  m_compute_ms_->Observe(compute_ms);
  cv_.notify_all();
}

}  // namespace gbx
