// AVX2 kernels: kernels_block.h's bodies over an 8-row block held as
// two 4-lane registers. Explicit mul-then-add (never _mm256_fmadd_pd)
// plus -ffp-contract=off on this TU keep contraction out.
#include "simd/kernels.h"

#if defined(GBX_KERNELS_AVX2)

#include <immintrin.h>

// kernels_block.h's standard headers, before the target region opens.
#include <algorithm>
#include <array>

GBX_TARGET_BEGIN("avx2")

#include "simd/kernels_block.h"

namespace gbx {
namespace simd {
namespace internal {
namespace {

struct Avx2Block {
  struct V {
    __m256d lo, hi;
  };
  using Mask = unsigned;
  // Two accumulator registers per query, beside two row loads and a
  // difference, inside the 16 ymm registers.
  static constexpr int kTopKQueries = 4;

  GBX_BLOCK_OP V Zero() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
  GBX_BLOCK_OP V Set1(double x) {
    return {_mm256_set1_pd(x), _mm256_set1_pd(x)};
  }
  GBX_BLOCK_OP V Load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  GBX_BLOCK_OP void Store(double* p, V a) {
    _mm256_storeu_pd(p, a.lo);
    _mm256_storeu_pd(p + 4, a.hi);
  }
  GBX_BLOCK_OP V Sub(V a, V b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  GBX_BLOCK_OP V Add(V a, V b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  GBX_BLOCK_OP V Mul(V a, V b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  GBX_BLOCK_OP V Sqrt(V a) {
    return {_mm256_sqrt_pd(a.lo), _mm256_sqrt_pd(a.hi)};
  }
  GBX_BLOCK_OP Mask Less(V a, V b) {
    return static_cast<Mask>(
        _mm256_movemask_pd(_mm256_cmp_pd(a.lo, b.lo, _CMP_LT_OQ)) |
        (_mm256_movemask_pd(_mm256_cmp_pd(a.hi, b.hi, _CMP_LT_OQ)) << 4));
  }
  // Ordered <= is false on NaN, so a NaN dist blends to itself, as in
  // the scalar ternary.
  GBX_BLOCK_OP V SubIfLe(V d, V r) {
    return {_mm256_blendv_pd(d.lo, _mm256_sub_pd(d.lo, r.lo),
                             _mm256_cmp_pd(d.lo, r.lo, _CMP_LE_OQ)),
            _mm256_blendv_pd(d.hi, _mm256_sub_pd(d.hi, r.hi),
                             _mm256_cmp_pd(d.hi, r.hi, _CMP_LE_OQ))};
  }
  // VMINPD returns the SECOND source when either operand is NaN.
  GBX_BLOCK_OP V Min(V a, V b) {
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
  }
};

constexpr Ops kAvx2Ops = MakeBlockOps<Avx2Block>();

}  // namespace

GBX_TARGET_END

const Ops* Avx2Ops() { return &kAvx2Ops; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#else  // !defined(GBX_KERNELS_AVX2)

namespace gbx {
namespace simd {
namespace internal {

const Ops* Avx2Ops() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#endif  // defined(GBX_KERNELS_AVX2)
