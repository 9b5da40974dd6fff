#include "index/index_strategy.h"

namespace gbx {

namespace {
// RD-GBG thresholds, measured with bench_granulation's strategy axis
// (1 core, 2.1 GHz). The unconditional tiers come from Gaussian-blob
// geometries: the overlapping regime (many small balls — the paper's
// hard case) has the KD-tree ahead 9.6× at (n=20k, d=2) and 3.6× at
// d=4; the well-separated regime (few huge balls, so candidates consume
// whole clusters from the stream) only clearly favors the tree at d<=2,
// and at d<=4 from ~20k points. kAuto must not lose on either regime,
// so it takes the intersection. The flat scan also parallelizes over
// the thread pool while a tree query is serial, so the d<=4 tier
// (3.6× single-thread margin) only engages up to kRdGbgTreeMaxThreads
// workers; the d<=2 tier's ~9× margin outruns typical thread scaling
// and stays on. Past d=4 the fused flat scan wins even on data with a
// low intrinsic dimension (BM_RdGbgStructured, n=20k, 1 thread: flat
// 1.2× ahead of the KD-tree at d=8, 1.9× at d=16), so no tier reads the
// data's structure.
// The d<=2 floor was re-measured against the round pass
// (simd::SquaredTopK) on the S5 banana generator, median of 9 fits per
// side (4-core AVX-512 VM; `rdgbg_d2_sweep` in BENCH_pr23.json at the
// repo root). flat/tree at 1 and 2 threads: 0.75/0.73 at n = 500,
// 0.85/0.83 at 1 000, 0.93/0.93 at 1 500, 1.05/1.06 at 2 000, 1.10/1.15
// at 3 000, 1.29/1.26 at 4 000 and 2.3 at 16 000. So the tree takes
// over from 2 000 points, and banana's 4 001 training rows fit through
// it.
constexpr int kRdGbgTreeMaxDimsLow = 2;    // KD-tree from kRdGbgTreeMinPoints
constexpr int kRdGbgTreeMaxDimsHigh = 4;   // KD-tree from kRdGbgTreeBigPoints
constexpr int kRdGbgTreeMinPoints = 2000;
constexpr int kRdGbgTreeBigPoints = 16384;
constexpr int kRdGbgTreeMaxThreads = 4;  // for the d<=4 tier only
// GB-kNN center scan, against the fused SIMD top-k scan (4-core AVX-512
// VM, GBX_THREADS=2; the rows sit in BENCH_pr21.json at the repo root).
// Fitted models decide. bench_index_dynamic's BM_GbKnnPredict (blobs,
// d=10, k=3, 2 000 queries) has the scan ahead of the best tree by
// 1.7–3.7x (614–15 583 balls) and BM_GbKnnPredictShapes' rotated
// low-intrinsic-dimension d=24 rows by 1.5–2.8x (704–13 309 balls,
// k=1 and 3); gbxbench's magic model (7 009 balls, d=10) predicts in
// 13 us flat against 110 us through the KD-tree (traced, seed 13). So
// the old d<=16 KD-tree tier and the structure-gated (16, 32] ball-tree
// tier are gone. Only the KD-tree at d<=2 survives, from 2 048 balls:
// on BM_GbKnnPredictShapes' banana models it leads at 2 148 balls and
// k=1 (2.73 ms against the scan's 4.13) and trails within 1.06x at k=3
// (5.20 against 4.92). Below that neither leads at every k (601 balls:
// 1.10 against 1.57 at k=1, 2.59 against 2.24 at k=3; 155 balls: the
// scan ahead 1.3x at both), and gbxbench banana's 1 150-ball model
// serves flat within 1.08x of the best tree (traced auto_over_best).
constexpr int kCenterTreeMaxDims = 2;
constexpr int kCenterTreeMinBalls = 2048;
// KnnIndex (kNN, SMOTE, Borderline-SMOTE, Tomek), against the flat
// scan, on the data those callers see: bench_micro's
// BM_KnnIndexPaperSuite (13 paper-suite stand-ins capped at 4 000 rows,
// k = 5 held-out queries, GBX_THREADS=1, 4-core AVX-512 VM; rows in
// BENCH_pr22.json at the repo root). The never-removed DynamicKdTree
// leads only on S5, the one d = 2 set (0.85 us against 5.09); the flat
// scan leads on every other set by 1.3-3.8x, least on S11 at d = 9
// (9.7 us against 12.9) and S3 at d = 6 (3.6 against 6.3). The flat
// arm is FlatKNearestSquared, KnnIndex's own query, allocation
// included. Re-run with that arm as one simd::SquaredTopK query
// (knn_index_paper_suite in BENCH_pr23.json), the tree still leads only
// on S5 (1.1 us against 4.1), and the flat arm takes 0.16-0.49x the
// tree arm's time on the other 12 sets. No set has 3 <= d <= 5, where
// BM_KnnIndexForcedTreeQuery's well-separated Gaussian blobs have the
// tree ahead; blobs like those misled the center tiers before (ROADMAP).
constexpr int kKnnTreeMaxDims = 2;
}  // namespace

const char* IndexStrategyName(IndexStrategy strategy) {
  switch (strategy) {
    case IndexStrategy::kAuto:
      return "auto";
    case IndexStrategy::kFlat:
      return "flat";
    case IndexStrategy::kTree:
      return "tree";
    case IndexStrategy::kBallTree:
      return "balltree";
  }
  return "auto";
}

bool ParseIndexStrategy(const std::string& text, IndexStrategy* out) {
  if (text == "auto") {
    *out = IndexStrategy::kAuto;
  } else if (text == "flat") {
    *out = IndexStrategy::kFlat;
  } else if (text == "tree") {
    *out = IndexStrategy::kTree;
  } else if (text == "balltree") {
    *out = IndexStrategy::kBallTree;
  } else {
    return false;
  }
  return true;
}

IndexStrategy ResolveRdGbgIndexStrategy(IndexStrategy requested, int n,
                                        int dims, int num_threads) {
  if (requested != IndexStrategy::kAuto) return requested;
  const bool kd_tree =
      (dims <= kRdGbgTreeMaxDimsLow && n >= kRdGbgTreeMinPoints) ||
      (dims <= kRdGbgTreeMaxDimsHigh && n >= kRdGbgTreeBigPoints &&
       num_threads <= kRdGbgTreeMaxThreads);
  return kd_tree ? IndexStrategy::kTree : IndexStrategy::kFlat;
}

IndexStrategy ResolveCenterIndexStrategy(IndexStrategy requested,
                                         int num_balls, int dims) {
  if (requested != IndexStrategy::kAuto) return requested;
  // No worker count: PredictBatch fans out over queries, and a single
  // Predict splits its flat scan over the pool only past 2^18 balls ×
  // dims (ml/gb_knn.cc), far above this tier's bar at d<=2, so the
  // crossover is the single-thread one at any GBX_THREADS.
  return dims <= kCenterTreeMaxDims && num_balls >= kCenterTreeMinBalls
             ? IndexStrategy::kTree
             : IndexStrategy::kFlat;
}

IndexStrategy ResolveKnnIndexStrategy(int dims) {
  return dims <= kKnnTreeMaxDims ? IndexStrategy::kTree : IndexStrategy::kFlat;
}

}  // namespace gbx
