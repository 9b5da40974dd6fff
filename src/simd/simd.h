// Batched flat-scan kernels behind a runtime dispatch shim. The five
// kernels cover the system's distance-dominated hot loops — the fused
// multi-query k-nearest scan behind RD-GBG's neighbor lists and
// KnnIndex, the squared-distance fill of RD-GBG's deep-read fallback,
// the Eq.-4 conflict-radius (r_conf) gap scan, and GB-kNN's
// surface-score scan and fused top-k selection — each streaming a
// SoaMatrix (common/matrix.h) so one vector register holds the same
// coordinate of kSoaBlock rows.
//
// Bit-exactness contract: every level computes, per row, the EXACT
// arithmetic of the scalar reference — a sequential
// `s += (q[j]-x[j])*(q[j]-x[j])` accumulation in dimension order, no
// FMA contraction (kernel TUs build with -ffp-contract=off), sqrt and
// min/compare with IEEE semantics matching the scalar `std::sqrt` /
// `std::min` / ternary forms. Vectorization is across rows (one lane =
// one row), never across dimensions, so no reassociation happens and
// scalar/AVX2/AVX-512/NEON agree bit for bit on every non-NaN output —
// including infinities and signed zeros. NaN outputs are NaN on every
// level, but the payload/sign bits are unspecified: IEEE leaves which
// operand's NaN propagates through `+`/`*` to the implementation, and
// the compiler may commute those operands differently per TU. NaN
// never survives into model artifacts or responses (min folds and
// ordered compares drop it), so payload identity is not part of the
// contract. tests/simd_kernel_test.cc enforces all of this on every
// level the host can run.
//
// Layout: kernels_scalar.cc is the reference; AVX2 and AVX-512 share
// one body per kernel (kernels_block.h) over their own 8-row block type;
// NEON has its own TU.
//
// Dispatch: the active level resolves once from cpuid, overridable via
// the GBX_SIMD env var (scalar|neon|avx2|avx512|auto). Requesting a
// level the binary or CPU cannot run falls back to the best supported
// level below it (with a warning log), so forcing GBX_SIMD=avx512 on
// an AVX2-only host degrades gracefully — CI exercises exactly that.
// The level is pure runtime state: it never changes any computed value
// (see contract above), so model artifacts and serve responses are
// byte-identical across levels.
#ifndef GBX_SIMD_SIMD_H_
#define GBX_SIMD_SIMD_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/matrix.h"

namespace gbx {
namespace simd {

/// Ordered by preference: dispatch resolution falls DOWN this order.
enum class Level : int {
  kScalar = 0,
  kNeon = 1,    // aarch64 ASIMD (2 doubles/vector)
  kAvx2 = 2,    // x86-64 AVX2 (4 doubles/vector)
  kAvx512 = 3,  // x86-64 AVX-512F (8 doubles/vector)
};

/// "scalar" / "neon" / "avx2" / "avx512".
const char* LevelName(Level level);

/// Parses a LevelName (exact match). Returns false and leaves `*out`
/// untouched on anything else ("auto" is not a Level; see ResolveLevel).
bool ParseLevel(const std::string& text, Level* out);

/// True when the level's kernels are compiled into this binary.
bool Compiled(Level level);

/// True when the level is compiled in AND the host CPU can run it.
bool Supported(Level level);

/// Resolution policy, exposed for tests: nullptr/""/"auto" picks the
/// best supported level; a recognized but unsupported level falls back
/// to the best supported level below it; an unrecognized value warns
/// and picks the best supported level.
Level ResolveLevel(const char* requested);

/// The level the kernel entry points below dispatch to. Resolved from
/// the GBX_SIMD env var (ResolveLevel) on first use, then cached.
Level Active();
const char* ActiveName();

/// Test hooks. SetLevelForTest checks Supported(level);
/// ReresolveFromEnvForTest re-reads GBX_SIMD (setenv + reresolve is how
/// the oracle battery walks every dispatch path in one process). Not
/// safe to call concurrently with in-flight kernel calls.
void SetLevelForTest(Level level);
void ReresolveFromEnvForTest();

/// out[i] = squared Euclidean distance from `q` to row i of `points`,
/// for i in [begin, end). `out` is indexed absolutely (caller provides
/// at least `end` slots). Bit-identical to SquaredDistance(q, row, d)
/// per row on every level.
void SquaredDistanceBatch(const double* q, const SoaMatrix& points, int begin,
                          int end, double* out);

/// The fused Eq.-4 gap scan: min over i in [begin, end) of
/// ||q - center_i|| - radii[i], +infinity for an empty range. NaN gaps
/// are dropped exactly like the scalar std::min fold. Bit-identical to
/// folding EuclideanDistance(q, center, d) - radii[i] in row order.
double MinSurfaceGap(const double* q, const SoaMatrix& centers,
                     const double* radii, int begin, int end);

/// out[i] = GB-kNN surface score of row i: dist <= r ? dist - r : dist
/// with dist = ||q - center_i||, for i in [begin, end); `out` indexed
/// absolutely. Bit-identical to the scalar ternary per row.
void SurfaceScores(const double* q, const SoaMatrix& centers,
                   const double* radii, int begin, int end, double* out);

/// The fused GB-kNN top-k scan: the min(k, end - begin) smallest
/// (surface score, row) pairs over rows [begin, end), written to
/// out[0..) in ascending (score, row) order; returns how many were
/// written. A NaN score ranks and reports as +infinity, so NaN rows
/// come after every finite score and tie with +inf rows by row index.
/// On non-NaN scores the result is bit-identical to partial_sort over
/// the (SurfaceScores value, row) pairs. The AVX2 and AVX-512 levels
/// filter each scored block against the current k-th score and insert
/// only the rows below it; scalar and NEON insert row by row. `out`
/// needs min(k, end - begin) slots; nothing m-sized is allocated.
int SurfaceTopK(const double* q, const SoaMatrix& centers, const double* radii,
                int begin, int end, int k, std::pair<double, int>* out);

/// The fused multi-query k-nearest scan. For each query g in
/// [0, num_queries): the min(k, eligible) smallest (squared distance,
/// row) pairs over the eligible rows of [begin, end) — rows with
/// live == nullptr or live[row] != 0, other than exclude[g] (-1
/// excludes nothing) — written to out[g*k ..) in ascending (dist2, row)
/// order, with their count in counts[g]. Each distance is bit-identical
/// to SquaredDistance(queries[g], row, d), so the lists are
/// partial_sort over those pairs; a NaN distance ranks and reports as
/// +infinity, as in SurfaceTopK. The queries run in passes of
/// SquaredTopKQueriesPerPass(): a pass loads each block once for all of
/// its queries, masks dead and excluded lanes, and compares each
/// query's block against that query's current k-th distance in
/// registers, so only the rows below it reach the query's sorted
/// buffer. `out` needs num_queries * k slots and `counts` num_queries;
/// nothing m-sized is allocated.
void SquaredTopK(const double* const* queries, int num_queries,
                 const SoaMatrix& rows, const std::uint8_t* live,
                 const int* exclude, int begin, int end, int k,
                 std::pair<double, int>* out, int* counts);

/// Queries per SquaredTopK pass at the active level, fixed per level by
/// its register count: 12 on AVX-512, 4 on AVX2, 8 for the scalar row
/// loop (scalar and NEON).
int SquaredTopKQueriesPerPass();

}  // namespace simd
}  // namespace gbx

#endif  // GBX_SIMD_SIMD_H_
