// Shared helpers of the gbxbench program: a monotonic clock, order
// statistics, and the metric records (name, value, unit) that main.cc
// prints as JSON.
#ifndef GBXBENCH_BENCH_H_
#define GBXBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gbxbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; NaN when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Ordered metric record: what gbxbench prints under "metrics".
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

}  // namespace gbxbench

#endif  // GBXBENCH_BENCH_H_
