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
#include <array>
#include <limits>
#include <utility>

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

// Queries per SquaredTopK pass: two accumulator registers each (a
// block is two 4-lane halves), beside two row loads and a difference,
// inside the 16 ymm registers.
constexpr int kTopKQueries = 4;

// One SquaredTopK pass over kQ queries; kernels_avx512.cc's
// SquaredTopKPass with each block split into two 4-row halves.
template <int kQ>
void SquaredTopKPass(const double* const* queries, const SoaMatrix& rows,
                     const std::uint8_t* live, const int* exclude, int begin,
                     int end, int k, std::pair<double, int>* out,
                     int* counts) {
  TopK top[kQ];
  const double* q[kQ];
  for (int g = 0; g < kQ; ++g) {
    top[g] = TopK(k, out + static_cast<std::size_t>(g) * k);
    q[g] = queries[g];
  }
  const int d = rows.cols();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    OfferRowSquared(queries, kQ, rows, live, exclude, i, top);
  }
  alignas(32) double lanes[kSoaBlock];
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    const unsigned alive = live != nullptr ? LiveBlockMask(live + i) : 0xFF;
    if (alive == 0) continue;
    const double* block = BlockBase(rows, i);
    __m256d acc0[kQ];
    __m256d acc1[kQ];
    for (int g = 0; g < kQ; ++g) acc0[g] = acc1[g] = _mm256_setzero_pd();
    for (int j = 0; j < d; ++j) {
      const double* col = block + static_cast<std::size_t>(j) * kSoaBlock;
      const __m256d x0 = _mm256_loadu_pd(col);
      const __m256d x1 = _mm256_loadu_pd(col + 4);
      for (int g = 0; g < kQ; ++g) {
        const __m256d qj = _mm256_set1_pd(q[g][j]);
        const __m256d d0 = _mm256_sub_pd(qj, x0);
        const __m256d d1 = _mm256_sub_pd(qj, x1);
        acc0[g] = _mm256_add_pd(acc0[g], _mm256_mul_pd(d0, d0));
        acc1[g] = _mm256_add_pd(acc1[g], _mm256_mul_pd(d1, d1));
      }
    }
    for (int g = 0; g < kQ; ++g) {
      unsigned pass = alive;
      const unsigned lane = static_cast<unsigned>(exclude[g] - i);
      if (lane < kSoaBlock) pass &= ~(1u << lane);
      if (top[g].full()) {
        const __m256d thr = _mm256_set1_pd(top[g].threshold());
        pass &= static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_cmp_pd(acc0[g], thr, _CMP_LT_OQ)) |
            (_mm256_movemask_pd(_mm256_cmp_pd(acc1[g], thr, _CMP_LT_OQ))
             << 4));
      }
      if (pass == 0) continue;
      _mm256_store_pd(lanes, acc0[g]);
      _mm256_store_pd(lanes + 4, acc1[g]);
      for (; pass != 0; pass &= pass - 1) {
        const int l = __builtin_ctz(pass);
        top[g].Offer(lanes[l], i + l);
      }
    }
  }
  for (; i < end; ++i) {
    OfferRowSquared(queries, kQ, rows, live, exclude, i, top);
  }
  for (int g = 0; g < kQ; ++g) counts[g] = top[g].count();
}

using SquaredTopKPassFn = decltype(&SquaredTopKPass<1>);

template <int... kI>
constexpr std::array<SquaredTopKPassFn, sizeof...(kI)> SquaredTopKPasses(
    std::integer_sequence<int, kI...>) {
  return {&SquaredTopKPass<kI + 1>...};
}

void SquaredTopKAvx2(const double* const* queries, int num_queries,
                     const SoaMatrix& rows, const std::uint8_t* live,
                     const int* exclude, int begin, int end, int k,
                     std::pair<double, int>* out, int* counts) {
  static constexpr auto kPasses =
      SquaredTopKPasses(std::make_integer_sequence<int, kTopKQueries>());
  kPasses[num_queries - 1](queries, rows, live, exclude, begin, end, k, out,
                           counts);
}

const Ops kAvx2Ops = {
    SquaredDistanceBatchAvx2,
    MinSurfaceGapAvx2,
    SurfaceScoresAvx2,
    SurfaceTopKAvx2,
    SquaredTopKAvx2,
    kTopKQueries,
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
