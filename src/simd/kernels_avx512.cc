// AVX-512F kernels: one SoA block = one 8-lane register. Same
// lane-per-row design and contraction rules as kernels_avx2.cc; the
// cross-lane min reduction spills to memory and folds with std::min
// rather than trusting _mm512_reduce_min_pd's NaN behavior.
#include "simd/kernels.h"

#if defined(__AVX512F__)

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

inline __m512d BlockSquaredDistance(const double* q, const double* block,
                                    int d) {
  __m512d acc = _mm512_setzero_pd();
  for (int j = 0; j < d; ++j) {
    const __m512d qj = _mm512_set1_pd(q[j]);
    const __m512d diff = _mm512_sub_pd(
        qj, _mm512_loadu_pd(block + static_cast<std::size_t>(j) * kSoaBlock));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
  }
  return acc;
}

void SquaredDistanceBatchAvx512(const double* q, const SoaMatrix& points,
                                int begin, int end, double* out) {
  const int d = points.cols();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSquaredDistance(q, points, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    _mm512_storeu_pd(out + i,
                     BlockSquaredDistance(q, BlockBase(points, i), d));
  }
  for (; i < end; ++i) out[i] = RowSquaredDistance(q, points, i);
}

double MinSurfaceGapAvx512(const double* q, const SoaMatrix& centers,
                           const double* radii, int begin, int end) {
  double best = std::numeric_limits<double>::infinity();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  __m512d m = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  const int d = centers.cols();
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    const __m512d dist =
        _mm512_sqrt_pd(BlockSquaredDistance(q, BlockBase(centers, i), d));
    const __m512d gap = _mm512_sub_pd(dist, _mm512_loadu_pd(radii + i));
    // VMINPD keeps the SECOND source on NaN: min(gap, m) drops NaN gaps
    // like the scalar std::min fold.
    m = _mm512_min_pd(gap, m);
  }
  alignas(64) double lanes[kSoaBlock];
  _mm512_store_pd(lanes, m);
  for (int l = 0; l < kSoaBlock; ++l) best = std::min(best, lanes[l]);
  for (; i < end; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  return best;
}

// The GB-kNN surface score of the full block at row i (i % 8 == 0).
// Ordered <= is false on NaN: lanes with NaN dist keep dist, as the
// scalar ternary does.
inline __m512d BlockSurfaceScore(const double* q, const SoaMatrix& centers,
                                 const double* radii, int i) {
  const __m512d dist = _mm512_sqrt_pd(
      BlockSquaredDistance(q, BlockBase(centers, i), centers.cols()));
  const __m512d r = _mm512_loadu_pd(radii + i);
  const __mmask8 le = _mm512_cmp_pd_mask(dist, r, _CMP_LE_OQ);
  return _mm512_mask_sub_pd(dist, le, dist, r);
}

void SurfaceScoresAvx512(const double* q, const SoaMatrix& centers,
                         const double* radii, int begin, int end,
                         double* out) {
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSurfaceScore(q, centers, radii, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    _mm512_storeu_pd(out + i, BlockSurfaceScore(q, centers, radii, i));
  }
  for (; i < end; ++i) out[i] = RowSurfaceScore(q, centers, radii, i);
}

int SurfaceTopKAvx512(const double* q, const SoaMatrix& centers,
                      const double* radii, int begin, int end, int k,
                      std::pair<double, int>* out) {
  TopK top(k, out);
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    top.Offer(RowSurfaceScore(q, centers, radii, i), i);
  }
  alignas(64) double lanes[kSoaBlock];
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    const __m512d s = BlockSurfaceScore(q, centers, radii, i);
    const __mmask8 below =
        top.full() ? _mm512_cmp_pd_mask(s, _mm512_set1_pd(top.threshold()),
                                        _CMP_LT_OQ)
                   : 0xFF;
    if (below == 0) continue;
    _mm512_store_pd(lanes, s);
    for (int l = 0; l < kSoaBlock; ++l) {
      if ((below >> l) & 1) top.Offer(lanes[l], i + l);
    }
  }
  for (; i < end; ++i) top.Offer(RowSurfaceScore(q, centers, radii, i), i);
  return top.count();
}

// Queries per SquaredTopK pass: one accumulator register each, beside
// the shared row load and a difference, inside the 32 zmm registers. 12
// covers a round of every paper-suite set (at most 10 classes) in one
// pass; BM_SquaredTopKKernel read 16 no faster.
constexpr int kTopKQueries = 12;

// One SquaredTopK pass over kQ queries, unrolled so every accumulator
// stays in a register: each block is loaded once per dimension and
// shared by all kQ queries, each query's distances fold j-ascending
// (RowSquaredDistance's order), and only the live, non-excluded lanes
// below that query's current k-th distance reach its TopK.
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
  alignas(64) double lanes[kSoaBlock];
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    const __mmask8 alive =
        live != nullptr ? static_cast<__mmask8>(LiveBlockMask(live + i))
                        : static_cast<__mmask8>(0xFF);
    if (alive == 0) continue;
    const double* block = BlockBase(rows, i);
    __m512d acc[kQ];
    for (int g = 0; g < kQ; ++g) acc[g] = _mm512_setzero_pd();
    for (int j = 0; j < d; ++j) {
      const __m512d x =
          _mm512_loadu_pd(block + static_cast<std::size_t>(j) * kSoaBlock);
      for (int g = 0; g < kQ; ++g) {
        const __m512d diff = _mm512_sub_pd(_mm512_set1_pd(q[g][j]), x);
        acc[g] = _mm512_add_pd(acc[g], _mm512_mul_pd(diff, diff));
      }
    }
    for (int g = 0; g < kQ; ++g) {
      __mmask8 pass = alive;
      const unsigned lane = static_cast<unsigned>(exclude[g] - i);
      if (lane < kSoaBlock) pass &= static_cast<__mmask8>(~(1u << lane));
      if (top[g].full()) {
        pass &= _mm512_cmp_pd_mask(
            acc[g], _mm512_set1_pd(top[g].threshold()), _CMP_LT_OQ);
      }
      if (pass == 0) continue;
      _mm512_store_pd(lanes, acc[g]);
      for (unsigned bits = pass; bits != 0; bits &= bits - 1) {
        const int l = __builtin_ctz(bits);
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

void SquaredTopKAvx512(const double* const* queries, int num_queries,
                       const SoaMatrix& rows, const std::uint8_t* live,
                       const int* exclude, int begin, int end, int k,
                       std::pair<double, int>* out, int* counts) {
  static constexpr auto kPasses =
      SquaredTopKPasses(std::make_integer_sequence<int, kTopKQueries>());
  kPasses[num_queries - 1](queries, rows, live, exclude, begin, end, k, out,
                           counts);
}

const Ops kAvx512Ops = {
    SquaredDistanceBatchAvx512,
    MinSurfaceGapAvx512,
    SurfaceScoresAvx512,
    SurfaceTopKAvx512,
    SquaredTopKAvx512,
    kTopKQueries,
};

}  // namespace

const Ops* Avx512Ops() { return &kAvx512Ops; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#else  // !defined(__AVX512F__)

namespace gbx {
namespace simd {
namespace internal {

const Ops* Avx512Ops() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#endif  // defined(__AVX512F__)
