// GBABS: Granular-Ball-based Approximate Borderline Sampling (Algorithm 2
// of the paper).
//
// After RD-GBG granulation, ball centers are scanned along every feature
// dimension in sorted order. Whenever two adjacent centers are
// heterogeneous, both balls are borderline; the facing extreme members of
// the pair (largest coordinate from the left ball, smallest from the right
// ball) are the approximate borderline samples. The union over all
// dimensions — deduplicated — is the sampled dataset.
//
// Each dimension's centers are ordered by a stable LSD radix sort on an
// order-preserving 64-bit key of the coordinate (ties by ball id), so the
// scan is O(p·m) radix passes over m balls, plus the extreme-member reads
// of the heterogeneous pairs. The dimensions are split over the
// granulation's thread pool (RdGbgConfig::num_threads); each worker keeps
// its own flags and O(m) scratch, and the flags are OR'd at the end, so
// the output is the same at any thread count.
#ifndef GBX_CORE_GBABS_H_
#define GBX_CORE_GBABS_H_

#include <cstdint>
#include <vector>

#include "core/rd_gbg.h"
#include "data/dataset.h"

namespace gbx {

struct GbabsConfig {
  /// Granulation settings, including RdGbgConfig::num_threads — the whole
  /// GBABS pipeline inherits the granulation thread pool through it.
  RdGbgConfig gbg;
  /// Future-work extension (§VI of the paper: "the time complexity of the
  /// GBABS is not ideal when facing high-dimensional feature spaces").
  /// When > 0, the borderline scan runs only over this many dimensions —
  /// the ones with the highest variance across ball centers — cutting the
  /// sampling stage from O(p·m) radix passes to O(k·m). 0 scans all
  /// dimensions (the paper's algorithm).
  int max_scan_dimensions = 0;
};

struct GbabsResult {
  /// The sampled dataset (original, unscaled features).
  Dataset sampled;
  /// Indices of sampled points in the input dataset, sorted ascending.
  std::vector<int> sampled_indices;
  /// Ids (into gbg.balls) of balls flagged as borderline.
  std::vector<int> borderline_ball_ids;
  /// The underlying granulation.
  RdGbgResult gbg;
  /// |sampled| / |input|.
  double sampling_ratio = 0.0;
};

/// The borderline scan splits its dimensions over the pool only when it
/// covers at least this many ball-dimensions (scanned dimensions × balls).
/// Below it a whole scan takes under ~0.2 ms, so one worker is as fast as
/// a pool handoff; banana's 2 × 1 129 stays serial.
inline constexpr std::int64_t kBorderlineScanMinParallelUnits =
    std::int64_t{1} << 13;

/// Runs RD-GBG then borderline sampling on `dataset`.
GbabsResult RunGbabs(const Dataset& dataset, const GbabsConfig& config);

/// Borderline sampling over an existing granulation (exposed for tests and
/// for reusing one granulation across analyses). Returns sampled indices
/// sorted ascending and fills `borderline_ball_ids` when non-null.
/// `max_scan_dimensions` as in GbabsConfig; `num_threads` as in
/// RdGbgConfig (RunGbabs passes the granulation's). Centers must be
/// finite.
std::vector<int> SampleBorderlineIndices(
    const GranularBallSet& balls, std::vector<int>* borderline_ball_ids,
    int max_scan_dimensions = 0, int num_threads = 0);

/// The dimensions the borderline scan visits for this granulation: all of
/// them when max_scan_dimensions <= 0 or >= p, otherwise the
/// max_scan_dimensions dimensions with the largest center variance.
std::vector<int> BorderlineScanDimensions(const GranularBallSet& balls,
                                          int max_scan_dimensions);

/// Convenience: the sampled dataset only.
Dataset GbabsSample(const Dataset& dataset, const GbabsConfig& config = {});

}  // namespace gbx

#endif  // GBX_CORE_GBABS_H_
