// Process-wide metrics: lock-light counters, gauges and fixed-bucket
// exponential histograms, registered by name + label set, with
// Prometheus-text and JSON exposition.
//
// Design goals (mirrors common/failpoint.h's cost model):
//
//   * An unscraped counter costs one relaxed atomic increment. A
//     histogram observation costs a bucket-index computation plus a
//     handful of relaxed atomic RMWs. No locks on the observation path.
//   * Registration (GetCounter / GetGauge / GetHistogram) takes a mutex
//     and is meant for setup time; callers cache the returned pointer,
//     which stays valid for the registry's lifetime.
//   * Exposition (PrometheusText / JsonText) reads every atomic with
//     relaxed loads; scrapes never block writers.
//
// Build-time escape hatch: the CMake option GBX_METRICS (default ON)
// defines GBX_METRICS_ENABLED. Compiled out, every observation method
// is an empty inline function (Metrics::kCompiledIn == false) so the
// serving hot path carries no trace of the subsystem; registration and
// exposition still compile (values read as zero). The runtime guard
// metrics::Enabled() (GBX_METRICS env var, "0"/"off" disables) is for
// call sites whose *measurement* is the cost — e.g. phase stopwatches
// inside fit loops — not for plain counter bumps.
#ifndef GBX_COMMON_METRICS_H_
#define GBX_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gbx {
namespace metrics {

/// True when observation methods are compiled in (CMake option
/// GBX_METRICS, default ON).
inline constexpr bool kCompiledIn =
#ifdef GBX_METRICS_ENABLED
    true;
#else
    false;
#endif

/// Runtime guard for call sites where taking the measurement itself is
/// the cost (phase timers around fit loops). One relaxed atomic load;
/// first call reads the GBX_METRICS env var ("0" or "off" disables).
bool Enabled();

/// Label set attached to a metric at registration: key/value pairs,
/// canonicalised (sorted by key) by the registry.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// C++20 has std::atomic<double>::fetch_add but CAS loops keep us
// independent of libstdc++'s lowering; these are not on any p50 path
// that matters beyond a few RMWs per request.
inline void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
inline void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur > v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonic counter. Inc() is one relaxed fetch_add.
class Counter {
 public:
  void Inc(std::int64_t n = 1) {
    if constexpr (kCompiledIn) {
      v_.fetch_add(n, std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Point-in-time integer gauge (queue depths, sizes, high-water marks).
class Gauge {
 public:
  void Set(std::int64_t v) {
    if constexpr (kCompiledIn) {
      v_.store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  void Add(std::int64_t n) {
    if constexpr (kCompiledIn) {
      v_.fetch_add(n, std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }
  void Sub(std::int64_t n) { Add(-n); }
  /// Raises the gauge to `v` if it is currently below it (high-water
  /// marks such as queue_peak).
  void SetMax(std::int64_t v) {
    if constexpr (kCompiledIn) {
      std::int64_t cur = v_.load(std::memory_order_relaxed);
      while (cur < v && !v_.compare_exchange_weak(
                            cur, v, std::memory_order_relaxed)) {
      }
    } else {
      (void)v;
    }
  }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// A consistent-enough point-in-time copy of a histogram (per-bucket
/// loads are individually relaxed). Mergeable; quantiles are estimated
/// by linear interpolation inside the landing bucket and clamped to the
/// exact observed [min, max].
struct HistogramSnapshot {
  std::vector<double> bounds;        ///< upper bounds, ascending; +Inf implied
  std::vector<std::int64_t> counts;  ///< size bounds.size()+1 (last = +Inf)
  std::int64_t count = 0;            ///< exact number of observations
  double sum = 0.0;                  ///< exact sum of observations
  double min = 0.0;                  ///< exact smallest observation (0 if empty)
  double max = 0.0;                  ///< exact largest observation (0 if empty)

  double Quantile(double q) const;  ///< q in [0,1]; 0 when empty
  double Mean() const { return count > 0 ? sum / count : 0.0; }
  /// Merges `other` into this (bounds must match; returns false if not).
  bool Merge(const HistogramSnapshot& other);
};

/// Fixed-bucket histogram. Observe() computes the bucket index and does
/// a handful of relaxed RMWs; count and sum are exact, quantiles are
/// bucket estimates. Bucket bounds are fixed at construction.
class Histogram {
 public:
  /// Default latency buckets (milliseconds): 1 us .. ~33.6 s, x2 per
  /// bucket, 26 finite buckets (+Inf implied).
  static std::vector<double> DefaultLatencyBoundsMs();
  /// Exponential bounds: start, start*factor, ... (`n` finite buckets).
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int n);

  explicit Histogram(std::vector<double> bounds = DefaultLatencyBoundsMs());

  void Observe(double v) {
    if constexpr (kCompiledIn) {
      counts_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      detail::AtomicAdd(sum_, v);
      detail::AtomicMin(min_, v);
      detail::AtomicMax(max_, v);
    } else {
      (void)v;
    }
  }

  std::int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::size_t BucketIndex(double v) const;

  std::vector<double> bounds_;
  // One extra slot for the +Inf bucket. unique_ptr<[]> keeps Histogram
  // movable at construction time while the atomics stay address-stable.
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Registry of named metrics. Get* registers on first use and returns a
/// pointer that stays valid for the registry's lifetime; repeated calls
/// with the same (name, labels) return the same object. The same name
/// must keep the same kind (a kind clash returns a process-lifetime
/// detached metric so the caller bug cannot corrupt exposition).
class MetricsRegistry {
 public:
  /// The process-wide default instance (what the serving path uses).
  static MetricsRegistry& Default();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& help = "",
                          std::vector<double> bounds = {});

  /// Prometheus text exposition format: # HELP / # TYPE headers, one
  /// series per label set, histograms as cumulative _bucket{le=}/_sum/
  /// _count. Families sorted by name, series by label set.
  std::string PrometheusText() const;

  /// JSON exposition: {"metrics":[{"name":...,"labels":{...},
  /// "type":"counter"|"gauge"|"histogram", ...}]}. Counters/gauges
  /// carry "value"; histograms carry count/sum/min/max/mean/p50/p90/
  /// p99. Stable field order for line-oriented consumers.
  std::string JsonText() const;

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    Labels labels;  // canonical (key-sorted)
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(Kind kind, const std::string& name, const Labels& labels,
                      const std::string& help, std::vector<double> bounds);

  mutable std::mutex mu_;
  // Key = name + canonical label serialisation; map iteration order is
  // exposition order (series of one family are contiguous).
  std::map<std::string, Entry> entries_;
  // Kind-clash fallbacks; never exposed.
  std::vector<std::unique_ptr<Entry>> detached_;
};

/// RAII timer observing elapsed milliseconds into a histogram on
/// destruction (no-op when `h` is null). Uses the steady clock.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(Histogram* h);
  ~ScopedTimerMs();
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;
  /// Stops the timer early and records; destruction then does nothing.
  void StopAndRecord();

 private:
  Histogram* h_;
  std::int64_t start_ns_;
};

/// The gbx_core_phase_ms series of one core algorithm phase: rdgbg_fit,
/// rdgbg_rconf, rdgbg_scan, rdgbg_fallback, gbabs_scan, gbknn_fit,
/// gbknn_index_build, gbknn_predict_batch. Registration takes the
/// registry mutex, so per-call hot paths cache the pointer.
Histogram* CorePhaseHistogram(const char* phase);

}  // namespace metrics
}  // namespace gbx

#endif  // GBX_COMMON_METRICS_H_
