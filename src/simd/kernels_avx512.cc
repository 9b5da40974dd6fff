// AVX-512F kernels: kernels_block.h's bodies over an 8-row block held
// in one 8-lane register, with the same contraction rules as
// kernels_avx2.cc. The cross-lane min reduction spills to memory and
// folds with std::min rather than trusting _mm512_reduce_min_pd's NaN
// behavior.
#include "simd/kernels.h"

#if defined(GBX_KERNELS_AVX512F)

#include <immintrin.h>

// kernels_block.h's standard headers, before the target region opens.
#include <algorithm>
#include <array>

GBX_TARGET_BEGIN("avx512f")

#include "simd/kernels_block.h"

namespace gbx {
namespace simd {
namespace internal {
namespace {

struct Avx512Block {
  using V = __m512d;
  using Mask = __mmask8;
  // One accumulator register per query, beside the shared row load and
  // a difference, inside the 32 zmm registers. 12 covers a round of
  // every paper-suite set (at most 10 classes) in one pass;
  // BM_SquaredTopKKernel read 16 no faster.
  static constexpr int kTopKQueries = 12;

  GBX_BLOCK_OP V Zero() { return _mm512_setzero_pd(); }
  GBX_BLOCK_OP V Set1(double x) { return _mm512_set1_pd(x); }
  GBX_BLOCK_OP V Load(const double* p) { return _mm512_loadu_pd(p); }
  GBX_BLOCK_OP void Store(double* p, V a) { _mm512_storeu_pd(p, a); }
  GBX_BLOCK_OP V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  GBX_BLOCK_OP V Add(V a, V b) { return _mm512_add_pd(a, b); }
  GBX_BLOCK_OP V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  GBX_BLOCK_OP V Sqrt(V a) { return _mm512_sqrt_pd(a); }
  GBX_BLOCK_OP Mask Less(V a, V b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  // Ordered <= is false on NaN: lanes with NaN dist keep dist, as the
  // scalar ternary does.
  GBX_BLOCK_OP V SubIfLe(V d, V r) {
    return _mm512_mask_sub_pd(d, _mm512_cmp_pd_mask(d, r, _CMP_LE_OQ), d, r);
  }
  // VMINPD keeps the SECOND source on NaN.
  GBX_BLOCK_OP V Min(V a, V b) { return _mm512_min_pd(a, b); }
};

constexpr Ops kAvx512Ops = MakeBlockOps<Avx512Block>();

}  // namespace

GBX_TARGET_END

const Ops* Avx512Ops() { return &kAvx512Ops; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#else  // !defined(GBX_KERNELS_AVX512F)

namespace gbx {
namespace simd {
namespace internal {

const Ops* Avx512Ops() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#endif  // defined(GBX_KERNELS_AVX512F)
