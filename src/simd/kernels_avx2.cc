// AVX2 kernels: 8 rows per SoA block as two 4-lane registers. One lane
// = one row; the j-loop carries each lane's accumulation in dimension
// order, so per-row arithmetic is the scalar reference's exactly (see
// simd.h). Explicit mul-then-add (never _mm256_fmadd_pd) plus
// -ffp-contract=off on this TU keep contraction out. Partial blocks at
// the range edges take the shared scalar row helpers — rows are
// independent, so mixing paths is exact.
#include "simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

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

// Accumulates the two 4-row squared-distance vectors for the full block
// starting at row i (i % 8 == 0).
inline void BlockSquaredDistance(const double* q, const double* block, int d,
                                 __m256d* acc0, __m256d* acc1) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  for (int j = 0; j < d; ++j) {
    const __m256d qj = _mm256_set1_pd(q[j]);
    const double* col = block + static_cast<std::size_t>(j) * kSoaBlock;
    const __m256d d0 = _mm256_sub_pd(qj, _mm256_loadu_pd(col));
    const __m256d d1 = _mm256_sub_pd(qj, _mm256_loadu_pd(col + 4));
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
  }
  *acc0 = a0;
  *acc1 = a1;
}

void SquaredDistanceBatchAvx2(const double* q, const SoaMatrix& points,
                              int begin, int end, double* out) {
  const int d = points.cols();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSquaredDistance(q, points, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    __m256d acc0, acc1;
    BlockSquaredDistance(q, BlockBase(points, i), d, &acc0, &acc1);
    _mm256_storeu_pd(out + i, acc0);
    _mm256_storeu_pd(out + i + 4, acc1);
  }
  for (; i < end; ++i) out[i] = RowSquaredDistance(q, points, i);
}

double MinSurfaceGapAvx2(const double* q, const SoaMatrix& centers,
                         const double* radii, int begin, int end) {
  double best = std::numeric_limits<double>::infinity();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  __m256d m0 = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d m1 = m0;
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    __m256d acc0, acc1;
    BlockSquaredDistance(q, BlockBase(centers, i), centers.cols(), &acc0,
                         &acc1);
    const __m256d gap0 =
        _mm256_sub_pd(_mm256_sqrt_pd(acc0), _mm256_loadu_pd(radii + i));
    const __m256d gap1 =
        _mm256_sub_pd(_mm256_sqrt_pd(acc1), _mm256_loadu_pd(radii + i + 4));
    // VMINPD returns the SECOND source when either operand is NaN, so
    // min(gap, acc) keeps the accumulator on a NaN gap — exactly the
    // scalar std::min(best, gap) fold.
    m0 = _mm256_min_pd(gap0, m0);
    m1 = _mm256_min_pd(gap1, m1);
  }
  alignas(32) double lanes[kSoaBlock];
  _mm256_store_pd(lanes, m0);
  _mm256_store_pd(lanes + 4, m1);
  for (int l = 0; l < kSoaBlock; ++l) best = std::min(best, lanes[l]);
  for (; i < end; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  return best;
}

// The GB-kNN surface scores of the full block at row i (i % 8 == 0),
// as two 4-row halves. Ordered <= is false on NaN, so a NaN dist blends
// to itself — the scalar ternary's behavior.
inline void BlockSurfaceScore(const double* q, const SoaMatrix& centers,
                              const double* radii, int i, __m256d* s0,
                              __m256d* s1) {
  __m256d acc0, acc1;
  BlockSquaredDistance(q, BlockBase(centers, i), centers.cols(), &acc0,
                       &acc1);
  const __m256d dist0 = _mm256_sqrt_pd(acc0);
  const __m256d dist1 = _mm256_sqrt_pd(acc1);
  const __m256d r0 = _mm256_loadu_pd(radii + i);
  const __m256d r1 = _mm256_loadu_pd(radii + i + 4);
  const __m256d le0 = _mm256_cmp_pd(dist0, r0, _CMP_LE_OQ);
  const __m256d le1 = _mm256_cmp_pd(dist1, r1, _CMP_LE_OQ);
  *s0 = _mm256_blendv_pd(dist0, _mm256_sub_pd(dist0, r0), le0);
  *s1 = _mm256_blendv_pd(dist1, _mm256_sub_pd(dist1, r1), le1);
}

void SurfaceScoresAvx2(const double* q, const SoaMatrix& centers,
                       const double* radii, int begin, int end, double* out) {
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSurfaceScore(q, centers, radii, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    __m256d s0, s1;
    BlockSurfaceScore(q, centers, radii, i, &s0, &s1);
    _mm256_storeu_pd(out + i, s0);
    _mm256_storeu_pd(out + i + 4, s1);
  }
  for (; i < end; ++i) out[i] = RowSurfaceScore(q, centers, radii, i);
}

int SurfaceTopKAvx2(const double* q, const SoaMatrix& centers,
                    const double* radii, int begin, int end, int k,
                    std::pair<double, int>* out) {
  TopK top(k, out);
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    top.Offer(RowSurfaceScore(q, centers, radii, i), i);
  }
  alignas(32) double lanes[kSoaBlock];
  __m256d s0, s1;
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    BlockSurfaceScore(q, centers, radii, i, &s0, &s1);
    int below = 0xFF;
    if (top.full()) {
      const __m256d thr = _mm256_set1_pd(top.threshold());
      below = _mm256_movemask_pd(_mm256_cmp_pd(s0, thr, _CMP_LT_OQ)) |
              (_mm256_movemask_pd(_mm256_cmp_pd(s1, thr, _CMP_LT_OQ)) << 4);
    }
    if (below == 0) continue;
    _mm256_store_pd(lanes, s0);
    _mm256_store_pd(lanes + 4, s1);
    for (int l = 0; l < kSoaBlock; ++l) {
      if ((below >> l) & 1) top.Offer(lanes[l], i + l);
    }
  }
  for (; i < end; ++i) top.Offer(RowSurfaceScore(q, centers, radii, i), i);
  return top.count();
}

const Ops kAvx2Ops = {
    SquaredDistanceBatchAvx2,
    MinSurfaceGapAvx2,
    SurfaceScoresAvx2,
    SurfaceTopKAvx2,
};

}  // namespace

const Ops* Avx2Ops() { return &kAvx2Ops; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#else  // !defined(__AVX2__)

namespace gbx {
namespace simd {
namespace internal {

const Ops* Avx2Ops() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#endif  // defined(__AVX2__)
