// Internal: per-ISA kernel tables and the shared scalar row helpers.
// Each kernels_<isa>.cc translation unit compiles unconditionally; when
// its ISA macro is absent (wrong arch, or the compiler lacks the ISA; on
// x86 CMakeLists.txt defines GBX_KERNELS_AVX2 / GBX_KERNELS_AVX512F) the
// TU exports a null table and dispatch skips the level. The AVX2
// and AVX-512 TUs instantiate one set of bodies, kernels_block.h; the
// scalar reference and NEON are written out. The scalar row helpers
// live here so every level's partial-block (head/tail) path is the same
// source as the scalar reference — one definition, no drift.
#ifndef GBX_SIMD_KERNELS_H_
#define GBX_SIMD_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "common/matrix.h"

namespace gbx {
namespace simd {
namespace internal {

struct Ops {
  void (*squared_distance_batch)(const double* q, const SoaMatrix& points,
                                 int begin, int end, double* out);
  double (*min_surface_gap)(const double* q, const SoaMatrix& centers,
                            const double* radii, int begin, int end);
  void (*surface_scores)(const double* q, const SoaMatrix& centers,
                         const double* radii, int begin, int end, double* out);
  int (*surface_top_k)(const double* q, const SoaMatrix& centers,
                       const double* radii, int begin, int end, int k,
                       std::pair<double, int>* out);
  /// One pass of SquaredTopK over at most squared_top_k_queries queries.
  void (*squared_top_k)(const double* const* queries, int num_queries,
                        const SoaMatrix& rows, const std::uint8_t* live,
                        const int* exclude, int begin, int end, int k,
                        std::pair<double, int>* out, int* counts);
  int squared_top_k_queries;
};

/// Null when the level is not compiled into this binary.
const Ops* ScalarOps();
const Ops* NeonOps();
const Ops* Avx2Ops();
const Ops* Avx512Ops();

// GBX_TARGET_BEGIN("avx2") ... GBX_TARGET_END: the functions defined
// between them compile for that ISA. The x86 kernel TUs open the region
// after this header and the standard ones, in place of a TU-wide -m flag,
// so the inline std:: and gbx functions those headers define (weak
// definitions at -O0, one of which the linker keeps for every caller)
// stay on the default target.
#define GBX_TARGET_PRAGMA(x) _Pragma(#x)
#if defined(__clang__)
#define GBX_TARGET_BEGIN(isa)                                 \
  GBX_TARGET_PRAGMA(clang attribute push(                     \
      __attribute__((target(isa))), apply_to = function))
#define GBX_TARGET_END GBX_TARGET_PRAGMA(clang attribute pop)
#else
#define GBX_TARGET_BEGIN(isa) \
  GBX_TARGET_PRAGMA(GCC push_options) GBX_TARGET_PRAGMA(GCC target(isa))
#define GBX_TARGET_END GBX_TARGET_PRAGMA(GCC pop_options)
#endif

// The row helpers have internal linkage: each ISA TU compiles its own
// copy, so an inline (weak) definition shared across TUs cannot leave,
// say, the AVX2 TU's copy serving the scalar level too.
namespace {

/// Base of row's lane within its block: element j of the row is at
/// RowBase(...)[j * kSoaBlock].
inline const double* RowBase(const SoaMatrix& m, int row) {
  return m.data() +
         static_cast<std::size_t>(row / kSoaBlock) * m.cols() * kSoaBlock +
         row % kSoaBlock;
}

/// The scalar reference row kernel: the same sequential accumulation as
/// SquaredDistance (common/matrix.h), reading one SoA lane. (q[j]-x[j])²
/// equals (x[j]-q[j])² bitwise, so operand order is free; accumulation
/// order is not, and stays strictly j-ascending.
inline double RowSquaredDistance(const double* q, const SoaMatrix& m,
                                 int row) {
  const double* base = RowBase(m, row);
  double s = 0.0;
  const int d = m.cols();
  for (int j = 0; j < d; ++j) {
    const double diff = q[j] - base[static_cast<std::size_t>(j) * kSoaBlock];
    s += diff * diff;
  }
  return s;
}

inline double RowSurfaceGap(const double* q, const SoaMatrix& m,
                            const double* radii, int row) {
  return std::sqrt(RowSquaredDistance(q, m, row)) - radii[row];
}

inline double RowSurfaceScore(const double* q, const SoaMatrix& m,
                              const double* radii, int row) {
  const double dist = std::sqrt(RowSquaredDistance(q, m, row));
  const double r = radii[row];
  return dist <= r ? dist - r : dist;
}

/// The bounded sorted buffer behind every level's SurfaceTopK:
/// out[0..count) ascending by (score, row), at most k >= 1 entries.
/// Offer maps a NaN score to +inf (simd.h) and compares whole pairs.
class TopK {
 public:
  TopK() = default;
  TopK(int k, std::pair<double, int>* out) : k_(k), out_(out) {}

  int count() const { return count_; }
  bool full() const { return count_ == k_; }
  /// The score a row must beat to enter a full buffer. A later row
  /// that only ties it has a larger index, so it stays out.
  double threshold() const { return out_[k_ - 1].first; }

  void Offer(double score, int row) {
    const std::pair<double, int> cand(
        std::isnan(score) ? std::numeric_limits<double>::infinity() : score,
        row);
    int pos = count_;
    if (full()) {
      if (!(cand < out_[k_ - 1])) return;
      --pos;
    } else {
      ++count_;
    }
    for (; pos > 0 && cand < out_[pos - 1]; --pos) out_[pos] = out_[pos - 1];
    out_[pos] = cand;
  }

 private:
  int k_ = 0;
  std::pair<double, int>* out_ = nullptr;
  int count_ = 0;
};

/// Bit l set when live[l] != 0, for the 8 live bytes of one SoA block
/// (little-endian byte order, as on every supported ISA).
inline unsigned LiveBlockMask(const std::uint8_t* live) {
  static_assert(kSoaBlock == 8, "one 64-bit word per block");
  std::uint64_t v;
  std::memcpy(&v, live, sizeof(v));
  // Fold each byte onto its low bit, then gather the 8 low bits into the
  // top byte: every product term lands on a distinct bit, so no carry.
  v |= v >> 4;
  v |= v >> 2;
  v |= v >> 1;
  v &= 0x0101010101010101ULL;
  return static_cast<unsigned>((v * 0x0102040810204080ULL) >> 56);
}

/// SquaredTopK's row step, shared by every level's head and tail rows
/// and by the scalar row loop: offers a live row to each query that does
/// not exclude it.
inline void OfferRowSquared(const double* const* queries, int num_queries,
                            const SoaMatrix& rows, const std::uint8_t* live,
                            const int* exclude, int row, TopK* top) {
  if (live != nullptr && live[row] == 0) return;
  for (int g = 0; g < num_queries; ++g) {
    if (row != exclude[g]) {
      top[g].Offer(RowSquaredDistance(queries[g], rows, row), row);
    }
  }
}

}  // namespace

/// SurfaceTopK row by row through TopK: the scalar level's kernel, and
/// the one NEON serves.
int SurfaceTopKRows(const double* q, const SoaMatrix& centers,
                    const double* radii, int begin, int end, int k,
                    std::pair<double, int>* out);

/// SquaredTopK row by row: the scalar level's pass, and the one NEON
/// serves. It holds no per-query registers, so its pass width only
/// bounds the TopK array on the stack.
constexpr int kRowsQueriesPerPass = 8;
void SquaredTopKRows(const double* const* queries, int num_queries,
                     const SoaMatrix& rows, const std::uint8_t* live,
                     const int* exclude, int begin, int end, int k,
                     std::pair<double, int>* out, int* counts);

}  // namespace internal
}  // namespace simd
}  // namespace gbx

#endif  // GBX_SIMD_KERNELS_H_
