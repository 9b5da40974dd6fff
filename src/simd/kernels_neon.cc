// aarch64 NEON (ASIMD) kernels: one SoA block = four 2-lane registers.
// Same lane-per-row design as the x86 TUs (vmul+vadd, never vfma; TU
// builds with -ffp-contract=off). NEON's vminq returns NaN when either
// operand is NaN — NOT the scalar std::min fold's behavior — so min and
// the score blend both go through explicit compare+bit-select, which
// matches the scalar `(g < m) ? g : m` / `dist <= r ? dist - r : dist`
// forms including NaN lanes.
#include "simd/kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <limits>

namespace gbx {
namespace simd {
namespace internal {
namespace {

inline const double* BlockBase(const SoaMatrix& m, int row) {
  return m.data() +
         static_cast<std::size_t>(row / kSoaBlock) * m.cols() * kSoaBlock;
}

inline void BlockSquaredDistance(const double* q, const double* block, int d,
                                 float64x2_t acc[4]) {
  for (int v = 0; v < 4; ++v) acc[v] = vdupq_n_f64(0.0);
  for (int j = 0; j < d; ++j) {
    const float64x2_t qj = vdupq_n_f64(q[j]);
    const double* col = block + static_cast<std::size_t>(j) * kSoaBlock;
    for (int v = 0; v < 4; ++v) {
      const float64x2_t diff = vsubq_f64(qj, vld1q_f64(col + 2 * v));
      acc[v] = vaddq_f64(acc[v], vmulq_f64(diff, diff));
    }
  }
}

void SquaredDistanceBatchNeon(const double* q, const SoaMatrix& points,
                              int begin, int end, double* out) {
  const int d = points.cols();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSquaredDistance(q, points, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    float64x2_t acc[4];
    BlockSquaredDistance(q, BlockBase(points, i), d, acc);
    for (int v = 0; v < 4; ++v) vst1q_f64(out + i + 2 * v, acc[v]);
  }
  for (; i < end; ++i) out[i] = RowSquaredDistance(q, points, i);
}

// (g < m) ? g : m — false (keep m) on NaN g, the std::min fold exactly.
inline float64x2_t MinFold(float64x2_t m, float64x2_t g) {
  return vbslq_f64(vcltq_f64(g, m), g, m);
}

double MinSurfaceGapNeon(const double* q, const SoaMatrix& centers,
                         const double* radii, int begin, int end) {
  double best = std::numeric_limits<double>::infinity();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  float64x2_t m[4];
  for (int v = 0; v < 4; ++v) {
    m[v] = vdupq_n_f64(std::numeric_limits<double>::infinity());
  }
  const int d = centers.cols();
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    float64x2_t acc[4];
    BlockSquaredDistance(q, BlockBase(centers, i), d, acc);
    for (int v = 0; v < 4; ++v) {
      const float64x2_t gap =
          vsubq_f64(vsqrtq_f64(acc[v]), vld1q_f64(radii + i + 2 * v));
      m[v] = MinFold(m[v], gap);
    }
  }
  double lanes[kSoaBlock];
  for (int v = 0; v < 4; ++v) vst1q_f64(lanes + 2 * v, m[v]);
  for (int l = 0; l < kSoaBlock; ++l) best = std::min(best, lanes[l]);
  for (; i < end; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  return best;
}

void SurfaceScoresNeon(const double* q, const SoaMatrix& centers,
                       const double* radii, int begin, int end, double* out) {
  const int d = centers.cols();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSurfaceScore(q, centers, radii, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    float64x2_t acc[4];
    BlockSquaredDistance(q, BlockBase(centers, i), d, acc);
    for (int v = 0; v < 4; ++v) {
      const float64x2_t dist = vsqrtq_f64(acc[v]);
      const float64x2_t r = vld1q_f64(radii + i + 2 * v);
      // dist <= r ? dist - r : dist; vcleq is false on NaN.
      const float64x2_t score =
          vbslq_f64(vcleq_f64(dist, r), vsubq_f64(dist, r), dist);
      vst1q_f64(out + i + 2 * v, score);
    }
  }
  for (; i < end; ++i) out[i] = RowSurfaceScore(q, centers, radii, i);
}

const Ops kNeonOps = {
    SquaredDistanceBatchNeon,
    MinSurfaceGapNeon,
    SurfaceScoresNeon,
    // No aarch64 build has run the top-k oracles yet, so NEON selects
    // through the scalar row loops.
    SurfaceTopKRows,
    SquaredTopKRows,
    kRowsQueriesPerPass,
};

}  // namespace

const Ops* NeonOps() { return &kNeonOps; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#else  // !aarch64 NEON

namespace gbx {
namespace simd {
namespace internal {

const Ops* NeonOps() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#endif  // aarch64 NEON
