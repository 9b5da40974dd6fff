// Strategy knob for the neighbor-scan hot paths: a parallel flat scan, a
// dynamic KD-tree, or a metric ball-tree — the two instantiations of the
// one tombstoned tree in dynamic_kd_tree.h, which differ only in the
// node bound they prune with. kAuto resolves per workload
// from the point count and the dimensionality — trees win asymptotically
// at large n but lose to the cache-friendly flat scan for small n, and
// axis-aligned-box pruning degrades toward a linear scan as
// dimensionality grows (distance concentration). The ball-tree's
// triangle-inequality pruning follows the data's intrinsic structure
// instead of coordinate boxes, which extends GB-kNN's center-scan tree
// wins into the moderate-d regime where the KD-tree already lost; RD-GBG
// granulation's kAuto never picks it. Each call site picks from its own
// measured crossover surface. Every strategy produces
// bit-identical results (enforced by thread_determinism_test); the knob
// trades wall-clock only, which is why it is runtime state and never
// persisted into model artifacts.
#ifndef GBX_INDEX_INDEX_STRATEGY_H_
#define GBX_INDEX_INDEX_STRATEGY_H_

#include <string>

#include "common/matrix.h"

namespace gbx {

enum class IndexStrategy {
  kAuto,      // resolve from n and dims at the call site
  kFlat,      // exhaustive scan (parallelized where the call site supports it)
  kTree,      // DynamicKdTree (axis-aligned box pruning)
  kBallTree,  // BallTree (metric triangle-inequality pruning)
};

/// "auto", "flat", "tree", or "balltree".
const char* IndexStrategyName(IndexStrategy strategy);

/// Parses "auto" / "flat" / "tree" / "balltree" (exact match). Returns
/// false and leaves `*out` untouched on anything else.
bool ParseIndexStrategy(const std::string& text, IndexStrategy* out);

/// Effective (intrinsic) dimensionality of a point set: the
/// participation ratio (Σλ)² / Σλ² of its covariance spectrum, computed
/// through trace identities (trace²(C) / ‖C‖²_F) — no eigendecomposition
/// — over a deterministic subsample of at most ~2k rows, so the cost is
/// O(min(n, 2k) · d²). Rotation-invariant: d for isotropic clouds, ≈ the
/// subspace dimension for data concentrated near a low-dimensional
/// subspace however it is oriented. This is the cheap signal that
/// separates "distance concentration kills tree pruning" (d_eff tracks
/// the ambient d) from "real structure, trees keep winning" (d_eff
/// stays small as d grows), and it gates GB-kNN's moderate-d ball-tree
/// tier below. Returns dims for degenerate inputs (< 2 rows, zero
/// variance).
double EffectiveDimension(const Matrix& points);

/// Resolution for RD-GBG's per-candidate neighbor pass over the shrinking
/// undivided set, from (n, dims, num_threads) alone: KD-tree at d<=2 from
/// ~4k samples; at d<=4 from ~16k but only up to 4 worker threads,
/// because the flat scan it replaces parallelizes over the pool while a
/// tree query is serial; the fused flat scan everywhere else.
/// Thresholds in index_strategy.cc. `num_threads` is the resolved worker
/// count (common/parallel.h).
IndexStrategy ResolveRdGbgIndexStrategy(IndexStrategy requested, int n,
                                        int dims, int num_threads);

/// Resolution for GB-kNN's per-query scan over ball centers
/// (KNearestSurface): KD-tree from ~4k balls up to d=16; past that
/// (d<=32) the metric ball-tree takes over, but only when the measured
/// EffectiveDimension of `centers` (pass the center matrix; nullptr
/// disables the tier) certifies low intrinsic dimensionality — that is
/// the regime where its triangle-inequality pruning still bites
/// (measured 2.1–2.3× over the flat scan at d=24/32 on rotated
/// informative-subspace centers, ahead of the KD-tree) while on
/// isotropic centers every tree loses there. Re-measured under
/// GBX_THREADS ∈ {1,4,8} the crossover is thread-invariant — batch
/// prediction parallelizes over queries for every strategy — so unlike
/// the RD-GBG resolver it takes no worker count (rationale in
/// index_strategy.cc). Crossovers measured by bench_index_dynamic.
IndexStrategy ResolveCenterIndexStrategy(IndexStrategy requested,
                                         int num_balls, int dims,
                                         const Matrix* centers = nullptr);

/// True when ResolveCenterIndexStrategy(kAuto, num_balls, dims, ...)
/// would consult the centers matrix — i.e. the EffectiveDimension-gated
/// ball-tree tier is in play. Callers use it to materialize the center
/// matrix only when the resolution actually needs it.
bool CenterResolutionWantsCenters(int num_balls, int dims);

}  // namespace gbx

#endif  // GBX_INDEX_INDEX_STRATEGY_H_
