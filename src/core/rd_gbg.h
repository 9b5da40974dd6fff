// RD-GBG: Restricted Diffusion-based Granular-Ball Generation
// (Algorithm 1 of the paper).
//
// Iteratively picks one candidate center per remaining class (larger
// classes first), validates it by local consistency (density tolerance
// rho), detects and removes class noise while doing so, and grows a *pure*,
// *non-overlapping* ball around each eligible center:
//
//   radius = CR(c)                 if CR(c) <= r_conf(c)     (Eq.3/4/5)
//          = r_max(c)              otherwise                 (Eq.6)
//
// where CR is the locally-consistent radius (distance to the farthest of
// the leading homogeneous neighbors), r_conf the distance to the nearest
// previously generated ball's surface, and r_max the largest neighbor
// distance not exceeding r_conf. Iteration ends when every undivided
// sample is low-density (U ⊆ L); remaining samples become radius-0
// "orphan" balls so the granulation is complete.
#ifndef GBX_CORE_RD_GBG_H_
#define GBX_CORE_RD_GBG_H_

#include <cstdint>

#include "core/granular_ball.h"
#include "data/dataset.h"
#include "index/index_strategy.h"

namespace gbx {

struct RdGbgConfig {
  /// Density tolerance rho (§IV-B1): how many nearest neighbors are
  /// examined when the closest neighbor of a candidate center is
  /// heterogeneous. The paper's default is 5 (Fig. 10/11 sweep 3..19).
  int density_tolerance = 5;
  /// Seed for the deterministic candidate-center stream.
  std::uint64_t seed = 42;
  /// Min-max scale features before granulation (recommended; distances and
  /// rho are then comparable across features). Balls always live in the
  /// scaled space reported by GranularBallSet::scaled_features().
  bool scale_features = true;
  /// Worker threads for the per-candidate distance scans. <= 0 resolves to
  /// the GBX_THREADS environment variable or the hardware concurrency
  /// (see common/parallel.h); 1 forces a fully serial run. A flat pass
  /// splits across workers only while its queries times U's
  /// row-dimensions repay the pool handoff: an epoch pass over every
  /// undivided sample does at gbxbench's sizes, while the deep-read
  /// fallback's one-query distance pass does for usps-sized n·d =
  /// 2000·256 and not for magic-sized 8000·10, so small inputs scan
  /// serially at any setting. Candidate selection and all state mutation
  /// stay sequential, so the granulation is bit-identical at every thread
  /// count. Reaches GBABS through GbabsConfig::gbg.
  int num_threads = 0;
  /// How the per-candidate neighbor pass scans the shrinking undivided
  /// set: kFlat serves each candidate's K = max(rho, 32) nearest from
  /// lists that a fused distance + top-K pass takes over a resident,
  /// tombstoned copy of U's rows, once per round for the round's
  /// candidates or once per epoch for all of T (falling back to a full
  /// lazily sorted fill only for a candidate that reads past its list),
  /// kTree a DynamicKdTree that follows the U-set with
  /// tombstone deletions (ahead of the flat scan only at d <= 2 from 2k
  /// samples, or d <= 4 from ~16k), kBallTree a metric ball-tree with
  /// triangle-inequality pruning (never ahead on a measured row, so
  /// forced only), kAuto picks by n, dims and the worker count
  /// (index/index_strategy.h). The conflict-radius pass ignores the
  /// knob: it is always the fused flat gap scan over the generated
  /// balls. Every strategy consumes the identical (dist2, index)-ordered
  /// neighbor sequence, so the granulation output is bit-identical
  /// whichever is chosen — the knob trades wall-clock only. Also selects
  /// GB-kNN's ball-center scan (ml/gb_knn.h).
  IndexStrategy index_strategy = IndexStrategy::kAuto;
};

struct RdGbgResult {
  GranularBallSet balls;
  /// Samples eliminated as class noise during center detection (sorted).
  std::vector<int> noise_indices;
  /// Samples that ended as low-density orphans (radius-0 balls; sorted).
  std::vector<int> orphan_indices;
  /// Number of outer (global) iterations executed.
  int iterations = 0;
};

/// Runs RD-GBG over the dataset. Requires at least one sample.
RdGbgResult GenerateRdGbg(const Dataset& dataset, const RdGbgConfig& config);

}  // namespace gbx

#endif  // GBX_CORE_RD_GBG_H_
