// Strategy knob for the neighbor-scan hot paths: a fused SIMD flat scan,
// a dynamic KD-tree, or a metric ball-tree — the two instantiations of
// the one tombstoned tree in dynamic_kd_tree.h, which differ only in the
// node bound they prune with. kAuto resolves per workload from the point
// count and the dimensionality — trees win asymptotically at large n but
// lose to the cache-friendly flat scan for small n, and axis-aligned-box
// pruning degrades toward a linear scan as dimensionality grows
// (distance concentration). kAuto never picks the ball-tree: it loses to
// the flat scan on every measured row, structured centers included; it
// stays a forced choice. Each call site picks from its own
// measured crossover surface. Every strategy produces
// bit-identical results (enforced by thread_determinism_test); the knob
// trades wall-clock only, which is why it is runtime state and never
// persisted into model artifacts.
#ifndef GBX_INDEX_INDEX_STRATEGY_H_
#define GBX_INDEX_INDEX_STRATEGY_H_

#include <string>

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

/// Resolution for RD-GBG's per-candidate neighbor pass over the shrinking
/// undivided set, from (n, dims, num_threads) alone: KD-tree at d<=2 from
/// 2k samples; at d<=4 from ~16k but only up to 4 worker threads,
/// because the flat scan it replaces parallelizes over the pool while a
/// tree query is serial; the fused flat scan everywhere else.
/// Thresholds in index_strategy.cc. `num_threads` is the resolved worker
/// count (common/parallel.h).
IndexStrategy ResolveRdGbgIndexStrategy(IndexStrategy requested, int n,
                                        int dims, int num_threads);

/// Resolution for GB-kNN's per-query scan over ball centers: the
/// KD-tree at d<=2 from ~2k balls, where its box pruning still beats
/// the fused SIMD top-k scan (simd::SurfaceTopK); that scan everywhere
/// else. Resolves from (num_balls, dims) alone — neither the worker
/// count nor the centers' structure moves the measured crossover
/// (rationale and rows in index_strategy.cc).
IndexStrategy ResolveCenterIndexStrategy(IndexStrategy requested,
                                         int num_balls, int dims);

/// The structure behind KnnIndex (index/knn_index.h), the exact
/// k-nearest primitive of the kNN classifier and the SMOTE-family and
/// Tomek samplers: the DynamicKdTree at d<=2, the flat SIMD scan
/// everywhere else. Resolves from the dimensionality alone and takes no
/// request: both sides return the same neighbors, and the crossover is
/// measured (rows cited in index_strategy.cc).
IndexStrategy ResolveKnnIndexStrategy(int dims);

}  // namespace gbx

#endif  // GBX_INDEX_INDEX_STRATEGY_H_
