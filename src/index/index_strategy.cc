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
// and stays on.
constexpr int kRdGbgTreeMaxDimsLow = 2;    // KD-tree from kRdGbgTreeMinPoints
constexpr int kRdGbgTreeMaxDimsHigh = 4;   // KD-tree from kRdGbgTreeBigPoints
constexpr int kRdGbgTreeMinPoints = 4096;
constexpr int kRdGbgTreeBigPoints = 16384;
constexpr int kRdGbgTreeMaxThreads = 4;  // for the d<=4 tier only
// Structure-gated tier: on isotropic data past d~6, distance
// concentration hands the flat parallel scan the win and no gate can
// help; but when the data's EffectiveDimension certifies a
// low-dimensional cloud (rotated informative-subspace geometry:
// d_eff ≈ 3.5 at any ambient d, vs 6.5–12 for isotropic blobs), tree
// pruning keeps working — measured, KD-tree 1.5× ahead of flat at
// (n=20k, d=8) and 1.85× at d=16 where blobs have the tree behind.
// The tier stops at d=16 (the measured grid's edge) and at 2 workers
// because the single-thread edge is modest.
constexpr int kRdGbgStructDims = 16;
constexpr double kRdGbgStructMaxEffDims = 5.0;
constexpr int kRdGbgStructMaxThreads = 2;
// r_conf surface pass: the flat gap scan is O(B) per candidate but
// parallelized; a BallSurfaceIndex query is serial and sublinear.
// Measured (bench_index_dynamic BM_SurfaceGapDrain, 1 core): the index
// is ahead of the serial flat scan from ~2k balls at every measured d
// (4.0× at 2k / 7.3× at 8k / 19× at 32k for d=2; 1.8× / 1.4× / 2.5×
// for d=10), so one worker switches early; big pools amortize the flat
// scan better, so the threshold scales with the worker count.
constexpr int kSurfaceMinBallsSerial = 512;
constexpr int kSurfaceMinBallsPerThread = 512;
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
    case IndexStrategy::kSampled:
      return "sampled";
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
  } else if (text == "sampled") {
    *out = IndexStrategy::kSampled;
  } else {
    return false;
  }
  return true;
}

IndexStrategy ResolveRdGbgIndexStrategy(IndexStrategy requested, int n,
                                        int dims, int num_threads,
                                        const Matrix* points) {
  // Granulation is always exact: an approximate candidate scan would
  // change the balls — and therefore the model bytes — so a kSampled
  // request degrades to kAuto here and only takes effect at inference
  // (GB-kNN's center scan).
  if (requested == IndexStrategy::kSampled) requested = IndexStrategy::kAuto;
  if (requested != IndexStrategy::kAuto) return requested;
  const bool kd_tree =
      (dims <= kRdGbgTreeMaxDimsLow && n >= kRdGbgTreeMinPoints) ||
      (dims <= kRdGbgTreeMaxDimsHigh && n >= kRdGbgTreeBigPoints &&
       num_threads <= kRdGbgTreeMaxThreads);
  if (kd_tree) return IndexStrategy::kTree;
  // The moderate-d tier pays one EffectiveDimension scan (O(2k · d²),
  // microseconds against a granulation that is seconds at this n) only
  // once the unconditional size/dims gates pass.
  const bool structured_candidate =
      points != nullptr && dims > kRdGbgTreeMaxDimsHigh &&
      dims <= kRdGbgStructDims && n >= kRdGbgTreeBigPoints &&
      num_threads <= kRdGbgStructMaxThreads;
  if (structured_candidate &&
      EffectiveDimension(*points) <= kRdGbgStructMaxEffDims) {
    return IndexStrategy::kTree;
  }
  return IndexStrategy::kFlat;
}

int ResolveRdGbgSurfaceThreshold(IndexStrategy requested, int num_threads) {
  switch (requested) {
    case IndexStrategy::kFlat:
      return kSurfaceIndexNever;
    case IndexStrategy::kTree:
    case IndexStrategy::kBallTree:
      return 0;
    case IndexStrategy::kAuto:
    case IndexStrategy::kSampled:  // exact during granulation, like kAuto
      break;
  }
  if (num_threads <= 1) return kSurfaceMinBallsSerial;
  return kSurfaceMinBallsPerThread * num_threads;
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
