// Internal: the x86 kernel bodies, written once over an 8-row block
// type B that says how one SoA block sits in registers. kernels_avx2.cc
// (two 4-lane halves) and kernels_avx512.cc (one 8-lane register) each
// define their B and instantiate MakeBlockOps<B>(). B provides:
//   V, Mask               one block of doubles; a bitmask over its lanes
//   Zero, Set1            all lanes 0; all lanes x
//   Load, Store           8 contiguous doubles, unaligned
//   Sub, Add, Mul, Sqrt   lane-wise IEEE arithmetic
//   Less(a, b)            bit l = a[l] < b[l], ordered (clear on NaN)
//   SubIfLe(d, r)         d <= r ? d - r : d, ordered
//   Min(a, b)             VMINPD: a < b ? a : b, so b on NaN
//   kTopKQueries          SquaredTopK's pass width
// One lane = one row, and every row folds j-ascending, so per-row
// arithmetic is the scalar reference's exactly (see simd.h); partial
// blocks at the range edges take kernels.h's row helpers. Every name
// here has internal linkage: each ISA TU compiles its own copy for its
// own target, and none may reach the linker as a shared symbol.
#ifndef GBX_SIMD_KERNELS_BLOCK_H_
#define GBX_SIMD_KERNELS_BLOCK_H_

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "simd/kernels.h"

// Declares a block op. The intrinsics an op wraps are always_inline;
// the op is too, so each body compiles to the instructions it would
// with the intrinsics spelled out (plain inline ops moved registers
// around in 4 of the 12 AVX-512 SquaredTopK passes).
#define GBX_BLOCK_OP [[gnu::always_inline]] static

namespace gbx {
namespace simd {
namespace internal {
namespace {

inline const double* BlockBase(const SoaMatrix& m, int row) {
  return m.data() +
         static_cast<std::size_t>(row / kSoaBlock) * m.cols() * kSoaBlock;
}

// The squared distances from q to the full block at `block`.
template <class B>
inline typename B::V BlockSquaredDistance(const double* q, const double* block,
                                          int d) {
  typename B::V acc = B::Zero();
  for (int j = 0; j < d; ++j) {
    const typename B::V x =
        B::Load(block + static_cast<std::size_t>(j) * kSoaBlock);
    const typename B::V diff = B::Sub(B::Set1(q[j]), x);
    acc = B::Add(acc, B::Mul(diff, diff));
  }
  return acc;
}

// The GB-kNN surface scores of the full block at row i (i % 8 == 0).
template <class B>
inline typename B::V BlockSurfaceScore(const double* q,
                                       const SoaMatrix& centers,
                                       const double* radii, int i) {
  const typename B::V dist = B::Sqrt(
      BlockSquaredDistance<B>(q, BlockBase(centers, i), centers.cols()));
  return B::SubIfLe(dist, B::Load(radii + i));
}

template <class B>
void SquaredDistanceBatch(const double* q, const SoaMatrix& points, int begin,
                          int end, double* out) {
  const int d = points.cols();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSquaredDistance(q, points, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    B::Store(out + i, BlockSquaredDistance<B>(q, BlockBase(points, i), d));
  }
  for (; i < end; ++i) out[i] = RowSquaredDistance(q, points, i);
}

template <class B>
double MinSurfaceGap(const double* q, const SoaMatrix& centers,
                     const double* radii, int begin, int end) {
  double best = std::numeric_limits<double>::infinity();
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  typename B::V m = B::Set1(std::numeric_limits<double>::infinity());
  const int d = centers.cols();
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    const typename B::V dist =
        B::Sqrt(BlockSquaredDistance<B>(q, BlockBase(centers, i), d));
    // Min keeps its second operand on NaN, so min(gap, m) drops a NaN
    // gap like the scalar std::min(best, gap) fold.
    m = B::Min(B::Sub(dist, B::Load(radii + i)), m);
  }
  alignas(alignof(typename B::V)) double lanes[kSoaBlock];
  B::Store(lanes, m);
  for (int l = 0; l < kSoaBlock; ++l) best = std::min(best, lanes[l]);
  for (; i < end; ++i) {
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  return best;
}

template <class B>
void SurfaceScores(const double* q, const SoaMatrix& centers,
                   const double* radii, int begin, int end, double* out) {
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    out[i] = RowSurfaceScore(q, centers, radii, i);
  }
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    B::Store(out + i, BlockSurfaceScore<B>(q, centers, radii, i));
  }
  for (; i < end; ++i) out[i] = RowSurfaceScore(q, centers, radii, i);
}

// Scores each block, compares it with the current k-th score, and
// offers only the rows below it.
template <class B>
int SurfaceTopK(const double* q, const SoaMatrix& centers, const double* radii,
                int begin, int end, int k, std::pair<double, int>* out) {
  TopK top(k, out);
  int i = begin;
  for (; i < end && i % kSoaBlock != 0; ++i) {
    top.Offer(RowSurfaceScore(q, centers, radii, i), i);
  }
  alignas(alignof(typename B::V)) double lanes[kSoaBlock];
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    const typename B::V s = BlockSurfaceScore<B>(q, centers, radii, i);
    const typename B::Mask below =
        top.full() ? B::Less(s, B::Set1(top.threshold()))
                   : static_cast<typename B::Mask>(0xFF);
    if (below == 0) continue;
    B::Store(lanes, s);
    for (int l = 0; l < kSoaBlock; ++l) {
      if ((below >> l) & 1) top.Offer(lanes[l], i + l);
    }
  }
  for (; i < end; ++i) top.Offer(RowSurfaceScore(q, centers, radii, i), i);
  return top.count();
}

// One SquaredTopK pass over kQ queries, unrolled so every accumulator
// stays in registers: each block is loaded once per dimension and
// shared by all kQ queries, each query's distances fold j-ascending
// (RowSquaredDistance's order), and only the live, non-excluded lanes
// below that query's current k-th distance reach its TopK.
template <class B, int kQ>
void SquaredTopKPass(const double* const* queries, const SoaMatrix& rows,
                     const std::uint8_t* live, const int* exclude, int begin,
                     int end, int k, std::pair<double, int>* out,
                     int* counts) {
  using V = typename B::V;
  using Mask = typename B::Mask;
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
  alignas(alignof(V)) double lanes[kSoaBlock];
  for (; i + kSoaBlock <= end; i += kSoaBlock) {
    const Mask alive = live != nullptr
                           ? static_cast<Mask>(LiveBlockMask(live + i))
                           : static_cast<Mask>(0xFF);
    if (alive == 0) continue;
    const double* block = BlockBase(rows, i);
    V acc[kQ];
    for (int g = 0; g < kQ; ++g) acc[g] = B::Zero();
    for (int j = 0; j < d; ++j) {
      const V x = B::Load(block + static_cast<std::size_t>(j) * kSoaBlock);
      for (int g = 0; g < kQ; ++g) {
        const V diff = B::Sub(B::Set1(q[g][j]), x);
        acc[g] = B::Add(acc[g], B::Mul(diff, diff));
      }
    }
    for (int g = 0; g < kQ; ++g) {
      Mask pass = alive;
      const unsigned lane = static_cast<unsigned>(exclude[g] - i);
      if (lane < kSoaBlock) pass &= static_cast<Mask>(~(1u << lane));
      if (top[g].full()) pass &= B::Less(acc[g], B::Set1(top[g].threshold()));
      if (pass == 0) continue;
      B::Store(lanes, acc[g]);
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

template <class B, int... kI>
constexpr auto SquaredTopKPasses(std::integer_sequence<int, kI...>) {
  return std::array{&SquaredTopKPass<B, kI + 1>...};
}

template <class B>
void SquaredTopK(const double* const* queries, int num_queries,
                 const SoaMatrix& rows, const std::uint8_t* live,
                 const int* exclude, int begin, int end, int k,
                 std::pair<double, int>* out, int* counts) {
  static constexpr auto kPasses = SquaredTopKPasses<B>(
      std::make_integer_sequence<int, B::kTopKQueries>());
  kPasses[num_queries - 1](queries, rows, live, exclude, begin, end, k, out,
                           counts);
}

template <class B>
constexpr Ops MakeBlockOps() {
  return {SquaredDistanceBatch<B>, MinSurfaceGap<B>, SurfaceScores<B>,
          SurfaceTopK<B>, SquaredTopK<B>, B::kTopKQueries};
}

}  // namespace
}  // namespace internal
}  // namespace simd
}  // namespace gbx

#endif  // GBX_SIMD_KERNELS_BLOCK_H_
