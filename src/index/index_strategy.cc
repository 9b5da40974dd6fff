#include "index/index_strategy.h"

#include <vector>

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
constexpr int kRdGbgTreeMaxDimsLow = 2;    // KD-tree from kRdGbgTreeMinPoints
constexpr int kRdGbgTreeMaxDimsHigh = 4;   // KD-tree from kRdGbgTreeBigPoints
constexpr int kRdGbgTreeMinPoints = 4096;
constexpr int kRdGbgTreeBigPoints = 16384;
constexpr int kRdGbgTreeMaxThreads = 4;  // for the d<=4 tier only
// GB-kNN center scan (KNearestSurface): the KD-tree tier is measured at
// ~4k balls for d<=16 on clustered blob centers (2.6× ahead at 16k
// balls, d=8; behind from d=16 on isotropic centers but 5–8× ahead on
// low-intrinsic-dimension centers, which the d_eff gate cannot
// distinguish cheaply below d=16 — the 16-d cap keeps the iid loss
// bounded to the ~1.6× measured at d=16 while structured data wins
// big). Past d=16 every strategy choice hinges on structure: the
// metric ball-tree is 4.6–6.3× ahead of flat at d=24/32 on rotated
// informative-subspace centers (and ahead of the KD-tree there), while
// on isotropic centers both trees lose — so the (16, 32] tier engages
// only under the EffectiveDimension gate.
constexpr int kCenterTreeMinBalls = 4096;
constexpr int kCenterTreeMaxDims = 16;
constexpr int kCenterBallTreeMaxDims = 32;
constexpr double kCenterBallTreeMaxEffDims = 8.0;
// EffectiveDimension subsample bound: past ~2k rows the spectrum
// estimate is stable and the O(n·d²) cost stops being free.
constexpr int kEffDimMaxRows = 2048;
}  // namespace

double EffectiveDimension(const Matrix& points) {
  const int n = points.rows();
  const int d = points.cols();
  if (n < 2 || d < 1) return d;
  const int stride = n > kEffDimMaxRows ? n / kEffDimMaxRows : 1;

  std::vector<double> mean(d, 0.0);
  int used = 0;
  for (int i = 0; i < n; i += stride) {
    const double* row = points.Row(i);
    for (int j = 0; j < d; ++j) mean[j] += row[j];
    ++used;
  }
  for (int j = 0; j < d; ++j) mean[j] /= used;

  // Upper triangle of the (unnormalized) covariance; the participation
  // ratio is scale-invariant, so the 1/(used-1) factor cancels.
  std::vector<double> cov(static_cast<std::size_t>(d) * d, 0.0);
  for (int i = 0; i < n; i += stride) {
    const double* row = points.Row(i);
    for (int a = 0; a < d; ++a) {
      const double va = row[a] - mean[a];
      double* cov_row = &cov[static_cast<std::size_t>(a) * d];
      for (int b = a; b < d; ++b) cov_row[b] += va * (row[b] - mean[b]);
    }
  }
  double trace = 0.0;
  double frob2 = 0.0;
  for (int a = 0; a < d; ++a) {
    const double* cov_row = &cov[static_cast<std::size_t>(a) * d];
    trace += cov_row[a];
    for (int b = a; b < d; ++b) {
      frob2 += (a == b ? 1.0 : 2.0) * cov_row[b] * cov_row[b];
    }
  }
  // (Σλ)² / Σλ² via trace(C)² / ‖C‖²_F (C symmetric, λ its spectrum).
  return frob2 > 0.0 ? trace * trace / frob2 : d;
}

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
                                         int num_balls, int dims,
                                         const Matrix* centers) {
  if (requested != IndexStrategy::kAuto) return requested;
  // Thread-awareness, re-measured under GBX_THREADS ∈ {1, 4, 8}
  // (bench_index_dynamic BM_GbKnnPredict): unlike RD-GBG — where the
  // flat scan parallelizes *inside* the serial candidate loop and a
  // tree query cannot — batch prediction fans out over queries for
  // every strategy, so the tree's margin (2.3× at 15.6k balls, d=10)
  // is invariant in the worker count and the entry bar must NOT rise
  // with it (a ×threads bar measurably hands kAuto a 2× loss at
  // GBX_THREADS=4 on that grid).
  if (num_balls < kCenterTreeMinBalls) return IndexStrategy::kFlat;
  if (dims <= kCenterTreeMaxDims) return IndexStrategy::kTree;
  if (dims <= kCenterBallTreeMaxDims && centers != nullptr &&
      EffectiveDimension(*centers) <= kCenterBallTreeMaxEffDims) {
    return IndexStrategy::kBallTree;
  }
  return IndexStrategy::kFlat;
}

bool CenterResolutionWantsCenters(int num_balls, int dims) {
  return num_balls >= kCenterTreeMinBalls && dims > kCenterTreeMaxDims &&
         dims <= kCenterBallTreeMaxDims;
}

}  // namespace gbx
