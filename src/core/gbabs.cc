#include "core/gbabs.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace gbx {

namespace {

/// Member of `ball` with the extreme coordinate along dimension `dim`.
/// `want_max` selects the largest coordinate, otherwise the smallest.
int ExtremeMember(const GranularBall& ball, const Matrix& x, int dim,
                  bool want_max) {
  GBX_CHECK_GT(ball.size(), 0);
  int best = ball.members[0];
  double best_v = x.At(best, dim);
  for (int idx : ball.members) {
    const double v = x.At(idx, dim);
    if (want_max ? (v > best_v) : (v < best_v)) {
      best = idx;
      best_v = v;
    }
  }
  return best;
}

}  // namespace

std::vector<int> BorderlineScanDimensions(const GranularBallSet& balls,
                                          int max_scan_dimensions) {
  const int p = balls.scaled_features().cols();
  std::vector<int> dims(p);
  for (int j = 0; j < p; ++j) dims[j] = j;
  if (max_scan_dimensions <= 0 || max_scan_dimensions >= p ||
      balls.empty()) {
    return dims;
  }
  // Variance of ball centers per dimension: high-variance dimensions are
  // where class structure (and therefore boundaries) spreads out.
  const int m = balls.size();
  std::vector<double> variance(p, 0.0);
  std::vector<double> mean(p, 0.0);
  for (int i = 0; i < m; ++i) {
    const auto& center = balls.ball(i).center;
    for (int j = 0; j < p; ++j) mean[j] += center[j];
  }
  for (int j = 0; j < p; ++j) mean[j] /= m;
  for (int i = 0; i < m; ++i) {
    const auto& center = balls.ball(i).center;
    for (int j = 0; j < p; ++j) {
      const double d = center[j] - mean[j];
      variance[j] += d * d;
    }
  }
  std::stable_sort(dims.begin(), dims.end(), [&](int a, int b) {
    return variance[a] > variance[b];
  });
  dims.resize(max_scan_dimensions);
  std::sort(dims.begin(), dims.end());
  return dims;
}

std::vector<int> SampleBorderlineIndices(
    const GranularBallSet& balls, std::vector<int>* borderline_ball_ids,
    int max_scan_dimensions) {
  static metrics::Histogram* const scan_hist =
      metrics::CorePhaseHistogram("gbabs_scan");
  metrics::ScopedTimerMs scan_timer(metrics::Enabled() ? scan_hist : nullptr);
  const int m = balls.size();
  const Matrix& x = balls.scaled_features();
  std::vector<std::uint8_t> sampled(x.rows(), 0);
  std::vector<std::uint8_t> borderline(m, 0);

  // (center coordinate, ball id) pairs, rebuilt per dimension: sorting
  // them orders the centers along the dimension with ties broken by ball
  // id, so the scan is deterministic.
  std::vector<std::pair<double, int>> order(m);
  const std::vector<int> dims =
      BorderlineScanDimensions(balls, max_scan_dimensions);
  for (int dim : dims) {
    // Step 1: sort centers along this dimension.
    for (int i = 0; i < m; ++i) order[i] = {balls.ball(i).center[dim], i};
    std::sort(order.begin(), order.end());
    // Step 2: adjacent heterogeneous centers flag both balls as borderline
    // and contribute the two members facing the boundary.
    for (int i = 0; i + 1 < m; ++i) {
      const GranularBall& left = balls.ball(order[i].second);
      const GranularBall& right = balls.ball(order[i + 1].second);
      if (left.label == right.label) continue;
      borderline[order[i].second] = 1;
      borderline[order[i + 1].second] = 1;
      sampled[ExtremeMember(left, x, dim, /*want_max=*/true)] = 1;
      sampled[ExtremeMember(right, x, dim, /*want_max=*/false)] = 1;
    }
  }

  // Flag vectors emit their ids in ascending order.
  const auto flagged = [](const std::vector<std::uint8_t>& flags) {
    std::vector<int> ids;
    for (int i = 0; i < static_cast<int>(flags.size()); ++i) {
      if (flags[i]) ids.push_back(i);
    }
    return ids;
  };
  if (borderline_ball_ids != nullptr) {
    *borderline_ball_ids = flagged(borderline);
  }
  return flagged(sampled);
}

GbabsResult RunGbabs(const Dataset& dataset, const GbabsConfig& config) {
  GbabsResult result;
  result.gbg = GenerateRdGbg(dataset, config.gbg);
  result.sampled_indices =
      SampleBorderlineIndices(result.gbg.balls, &result.borderline_ball_ids,
                              config.max_scan_dimensions);
  // Degenerate single-class datasets have no boundary: keep the centers so
  // the sampled set is non-empty and representative.
  if (result.sampled_indices.empty()) {
    for (const GranularBall& ball : result.gbg.balls.balls()) {
      if (ball.center_index >= 0) {
        result.sampled_indices.push_back(ball.center_index);
      }
    }
    std::sort(result.sampled_indices.begin(), result.sampled_indices.end());
  }
  result.sampled = dataset.Subset(result.sampled_indices);
  result.sampling_ratio =
      dataset.size() > 0
          ? static_cast<double>(result.sampled_indices.size()) / dataset.size()
          : 0.0;
  return result;
}

Dataset GbabsSample(const Dataset& dataset, const GbabsConfig& config) {
  return RunGbabs(dataset, config).sampled;
}

}  // namespace gbx
