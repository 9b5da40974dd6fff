#include "core/gbabs.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"

namespace gbx {

namespace {

// Order-preserving 64-bit key of a finite coordinate: unsigned order of
// the keys is `<` order of the values. -0.0 maps to +0.0's key, so the two
// tie, as they do under std::pair<double, int>'s `<`.
std::uint64_t OrderedKey(double v) {
  GBX_DCHECK(std::isfinite(v));
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

// One worker's share of the scan: its own flags, OR'd into the result at
// the end, and O(m) sort scratch reused across its dimensions.
struct ScanWorker {
  std::vector<std::uint8_t> sampled;
  std::vector<std::uint8_t> borderline;
  std::vector<std::uint64_t> keys;  // m keys, then m more of scratch
  std::vector<int> ids;             // likewise
};

// Orders the m ball ids 0..m-1 by `keys` with a stable LSD radix sort on
// 8-bit digits, so equal keys keep ball-id order. A pass whose digit is
// the same for every key would move nothing and is skipped. `keys` and
// `ids` hold 2m entries, the upper half scratch; returns the sorted ids.
const int* RadixOrder(int m, std::uint64_t* keys, int* ids) {
  std::uint64_t* keys_tmp = keys + m;
  int* ids_tmp = ids + m;
  std::array<std::array<int, 256>, 8> counts{};
  for (int i = 0; i < m; ++i) {
    ids[i] = i;
    for (int b = 0; b < 8; ++b) ++counts[b][(keys[i] >> (8 * b)) & 0xff];
  }
  for (int b = 0; b < 8; ++b) {
    int* count = counts[b].data();
    const int shift = 8 * b;
    if (count[(keys[0] >> shift) & 0xff] == m) continue;
    int offset = 0;
    for (int d = 0; d < 256; ++d) offset += std::exchange(count[d], offset);
    for (int i = 0; i < m; ++i) {
      const int slot = count[(keys[i] >> shift) & 0xff]++;
      keys_tmp[slot] = keys[i];
      ids_tmp[slot] = ids[i];
    }
    std::swap(keys, keys_tmp);
    std::swap(ids, ids_tmp);
  }
  return ids;
}

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
    int max_scan_dimensions, int num_threads) {
  static metrics::Histogram* const scan_hist =
      metrics::CorePhaseHistogram("gbabs_scan");
  metrics::ScopedTimerMs scan_timer(metrics::Enabled() ? scan_hist : nullptr);
  const int m = balls.size();
  const Matrix& x = balls.scaled_features();
  const std::vector<int> dims =
      BorderlineScanDimensions(balls, max_scan_dimensions);
  const int num_dims = static_cast<int>(dims.size());
  // Per-ball inputs of the scan, read by every worker: the center, the
  // label, and the member of a one-member ball (-1 otherwise), which is its
  // own extreme along every dimension.
  std::vector<const double*> centers(m);
  std::vector<int> labels(m);
  std::vector<int> lone(m);
  for (int i = 0; i < m; ++i) {
    const GranularBall& ball = balls.ball(i);
    centers[i] = ball.center.data();
    labels[i] = ball.label;
    lone[i] = ball.size() == 1 ? ball.members[0] : -1;
  }
  const auto extreme = [&](int id, int dim, bool want_max) {
    return lone[id] >= 0 ? lone[id]
                         : ExtremeMember(balls.ball(id), x, dim, want_max);
  };

  const int workers =
      static_cast<std::int64_t>(num_dims) * m >=
              kBorderlineScanMinParallelUnits
          ? std::clamp(ResolveNumThreads(num_threads), 1, num_dims)
          : 1;
  std::vector<ScanWorker> scratch(workers);
  // Worker w scans its own contiguous range of `dims`.
  ParallelForRange(workers, 1, workers, [&](int wbegin, int wend) {
    for (int wi = wbegin; wi < wend; ++wi) {
      ScanWorker& w = scratch[wi];
      w.sampled.assign(x.rows(), 0);
      w.borderline.assign(m, 0);
      w.keys.resize(2 * static_cast<std::size_t>(m));
      w.ids.resize(2 * static_cast<std::size_t>(m));
      std::uint8_t* sampled = w.sampled.data();
      std::uint8_t* borderline = w.borderline.data();
      const int dbegin = static_cast<int>(
          static_cast<std::int64_t>(num_dims) * wi / workers);
      const int dend = static_cast<int>(
          static_cast<std::int64_t>(num_dims) * (wi + 1) / workers);
      for (int k = dbegin; k < dend && m > 1; ++k) {
        const int dim = dims[k];
        // Step 1: order the centers along this dimension, ties by ball id.
        for (int i = 0; i < m; ++i) w.keys[i] = OrderedKey(centers[i][dim]);
        const int* order = RadixOrder(m, w.keys.data(), w.ids.data());
        // Step 2: adjacent heterogeneous centers flag both balls as
        // borderline and contribute the two members facing the boundary.
        for (int i = 0; i + 1 < m; ++i) {
          const int left = order[i];
          const int right = order[i + 1];
          if (labels[left] == labels[right]) continue;
          borderline[left] = 1;
          borderline[right] = 1;
          sampled[extreme(left, dim, /*want_max=*/true)] = 1;
          sampled[extreme(right, dim, /*want_max=*/false)] = 1;
        }
      }
    }
  });

  // OR the workers' flags (order-free, so any split gives the same ids),
  // then emit the flagged ids in ascending order.
  const auto flagged = [&](std::vector<std::uint8_t> ScanWorker::*flags) {
    std::vector<std::uint8_t>& all = scratch[0].*flags;
    for (int wi = 1; wi < workers; ++wi) {
      const std::vector<std::uint8_t>& own = scratch[wi].*flags;
      for (std::size_t i = 0; i < all.size(); ++i) all[i] |= own[i];
    }
    std::vector<int> ids;
    for (int i = 0; i < static_cast<int>(all.size()); ++i) {
      if (all[i]) ids.push_back(i);
    }
    return ids;
  };
  if (borderline_ball_ids != nullptr) {
    *borderline_ball_ids = flagged(&ScanWorker::borderline);
  }
  return flagged(&ScanWorker::sampled);
}

GbabsResult RunGbabs(const Dataset& dataset, const GbabsConfig& config) {
  GbabsResult result;
  result.gbg = GenerateRdGbg(dataset, config.gbg);
  result.sampled_indices =
      SampleBorderlineIndices(result.gbg.balls, &result.borderline_ball_ids,
                              config.max_scan_dimensions,
                              config.gbg.num_threads);
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
