#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace gbx {
namespace metrics {

bool Enabled() {
  static const bool enabled = [] {
    if (!kCompiledIn) return false;
    const char* env = std::getenv("GBX_METRICS");
    if (env == nullptr) return true;
    const std::string v(env);
    return !(v == "0" || v == "off" || v == "OFF" || v == "false");
  }();
  return enabled;
}

// ---------------------------------------------------------------------------
// Histogram

std::vector<double> Histogram::DefaultLatencyBoundsMs() {
  // 0.001 ms .. ~33.6 s, doubling: covers sub-microsecond kernel work
  // through multi-second fits in one fixed layout.
  return ExponentialBounds(0.001, 2.0, 26);
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int n) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(n > 0 ? n : 0));
  double b = start;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::int64_t>[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

std::size_t Histogram::BucketIndex(double v) const {
  // Prometheus convention: bucket i counts v <= bounds[i]; index
  // bounds_.size() is the +Inf bucket.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  const double mn = min_.load(std::memory_order_relaxed);
  const double mx = max_.load(std::memory_order_relaxed);
  s.min = std::isfinite(mn) ? mn : 0.0;
  s.max = std::isfinite(mx) ? mx : 0.0;
  return s;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil as quantile
  // convention; rank 0 maps to the minimum).
  const double rank = q * static_cast<double>(count);
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::int64_t prev = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank && counts[i] > 0) {
      const double lo = (i == 0) ? std::min(min, bounds.empty() ? min : bounds[0])
                                 : bounds[i - 1];
      const double hi = (i < bounds.size()) ? bounds[i] : max;
      const double frac =
          (rank - static_cast<double>(prev)) / static_cast<double>(counts[i]);
      const double est = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      // The bucket estimate can stray outside the exact observed range
      // (e.g. max mid-bucket); clamp so p99 <= max and p0 >= min hold.
      return std::clamp(est, min, max);
    }
  }
  return max;
}

bool HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (bounds != other.bounds || counts.size() != other.counts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  if (other.count > 0) {
    min = (count > 0) ? std::min(min, other.min) : other.min;
    max = (count > 0) ? std::max(max, other.max) : other.max;
  }
  count += other.count;
  sum += other.sum;
  return true;
}

// ---------------------------------------------------------------------------
// Registry

namespace {

std::string CanonicalKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  key.push_back('{');
  for (const auto& [k, v] : labels) {
    key += k;
    key.push_back('=');
    key += v;
    key.push_back(',');
  }
  key.push_back('}');
  return key;
}

std::string EscapePromLabel(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string EscapeJson(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Shortest-round-trip-ish float formatting for exposition: trims the
// trailing zeros %g leaves alone while keeping integers integral.
std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string PromLabelBlock(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    out += EscapePromLabel(v);
    out += "\"";
  }
  if (!extra.empty()) {
    if (!first) out.push_back(',');
    out += extra;
  }
  out.push_back('}');
  return out;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    Kind kind, const std::string& name, const Labels& labels,
    const std::string& help, std::vector<double> bounds) {
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  const std::string key = CanonicalKey(name, canonical);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind == kind) return &it->second;
    // Kind clash: a caller bug. Hand back a detached metric of the
    // requested kind so the write path stays safe and the registered
    // family keeps a consistent type for exposition.
    auto detached = std::make_unique<Entry>();
    detached->kind = kind;
    detached->name = name;
    detached->labels = canonical;
    switch (kind) {
      case Kind::kCounter:
        detached->counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        detached->gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        detached->histogram = std::make_unique<Histogram>(
            bounds.empty() ? Histogram::DefaultLatencyBoundsMs()
                           : std::move(bounds));
        break;
    }
    detached_.push_back(std::move(detached));
    return detached_.back().get();
  }

  Entry& e = entries_[key];
  e.kind = kind;
  e.name = name;
  e.labels = std::move(canonical);
  e.help = help;
  switch (kind) {
    case Kind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      e.histogram = std::make_unique<Histogram>(
          bounds.empty() ? Histogram::DefaultLatencyBoundsMs()
                         : std::move(bounds));
      break;
  }
  return &e;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  return FindOrCreate(Kind::kCounter, name, labels, help, {})->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  return FindOrCreate(Kind::kGauge, name, labels, help, {})->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  return FindOrCreate(Kind::kHistogram, name, labels, help, std::move(bounds))
      ->histogram.get();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  const std::string* prev_name = nullptr;
  for (const auto& [key, e] : entries_) {
    (void)key;
    if (prev_name == nullptr || *prev_name != e.name) {
      if (!e.help.empty()) {
        out += "# HELP " + e.name + " " + e.help + "\n";
      }
      out += "# TYPE " + e.name + " ";
      switch (e.kind) {
        case Kind::kCounter: out += "counter"; break;
        case Kind::kGauge: out += "gauge"; break;
        case Kind::kHistogram: out += "histogram"; break;
      }
      out.push_back('\n');
      prev_name = &e.name;
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += e.name + PromLabelBlock(e.labels) + " " +
               std::to_string(e.counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += e.name + PromLabelBlock(e.labels) + " " +
               std::to_string(e.gauge->Value()) + "\n";
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot s = e.histogram->Snapshot();
        std::int64_t cumulative = 0;
        for (std::size_t i = 0; i < s.counts.size(); ++i) {
          cumulative += s.counts[i];
          const std::string le =
              (i < s.bounds.size()) ? FormatDouble(s.bounds[i]) : "+Inf";
          out += e.name + "_bucket" +
                 PromLabelBlock(e.labels, "le=\"" + le + "\"") + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += e.name + "_sum" + PromLabelBlock(e.labels) + " " +
               FormatDouble(s.sum) + "\n";
        out += e.name + "_count" + PromLabelBlock(e.labels) + " " +
               std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::JsonText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, e] : entries_) {
    (void)key;
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"" + EscapeJson(e.name) + "\"";
    if (!e.labels.empty()) {
      out += ",\"labels\":{";
      bool lfirst = true;
      for (const auto& [k, v] : e.labels) {
        if (!lfirst) out.push_back(',');
        lfirst = false;
        // Plain appends: the `const char* + string&&` operator+ chain
        // trips a gcc-12 -Wrestrict false positive under -Werror.
        out.push_back('"');
        out += EscapeJson(k);
        out += "\":\"";
        out += EscapeJson(v);
        out.push_back('"');
      }
      out.push_back('}');
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":" +
               std::to_string(e.counter->Value());
        break;
      case Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":" +
               std::to_string(e.gauge->Value());
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot s = e.histogram->Snapshot();
        out += ",\"type\":\"histogram\",\"count\":" + std::to_string(s.count) +
               ",\"sum\":" + FormatDouble(s.sum) +
               ",\"min\":" + FormatDouble(s.min) +
               ",\"max\":" + FormatDouble(s.max) +
               ",\"mean\":" + FormatDouble(s.Mean()) +
               ",\"p50\":" + FormatDouble(s.Quantile(0.50)) +
               ",\"p90\":" + FormatDouble(s.Quantile(0.90)) +
               ",\"p99\":" + FormatDouble(s.Quantile(0.99));
        break;
      }
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// ScopedTimerMs

namespace {
std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ScopedTimerMs::ScopedTimerMs(Histogram* h)
    : h_(h), start_ns_(h != nullptr ? NowNs() : 0) {}

void ScopedTimerMs::StopAndRecord() {
  if (h_ != nullptr) {
    h_->Observe(static_cast<double>(NowNs() - start_ns_) * 1e-6);
    h_ = nullptr;
  }
}

ScopedTimerMs::~ScopedTimerMs() { StopAndRecord(); }

Histogram* CorePhaseHistogram(const char* phase) {
  return MetricsRegistry::Default().GetHistogram(
      "gbx_core_phase_ms", {{"phase", phase}},
      "Core algorithm phase durations (ms); phases: rdgbg_fit, "
      "rdgbg_rconf, rdgbg_scan, rdgbg_fallback, gbabs_scan, gbknn_fit, "
      "gbknn_index_build, gbknn_predict_batch");
}

}  // namespace metrics
}  // namespace gbx
