// Oracle battery for the src/simd kernels: walks EVERY dispatch path
// the host can run (forced via GBX_SIMD + ReresolveFromEnvForTest,
// skipping unsupported levels) and demands bit-exact equality against
// an independent scalar reference — computed here with the same
// sequential dimension-order arithmetic the contract in simd/simd.h
// promises. Comparisons go through the raw uint64 bits so NaN payloads
// and signed zeros count; grids include remainder-lane shapes
// (n % kSoaBlock != 0), awkward dimensions, partial [begin, end)
// ranges, and NaN/inf rows placed inside the SoA tail block.
#include "simd/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"

namespace gbx {
namespace simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Blocks constant folding: inf - inf folded at compile time yields
/// +qNaN while the runtime x86 subtraction yields the "real indefinite"
/// -qNaN — the oracle must do the SAME runtime arithmetic the kernels
/// do, so every injected special value passes through here.
double Opaque(double x) {
  volatile double v = x;
  return v;
}

std::uint64_t Bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// The contract from simd/simd.h, verbatim: identical bits for every
/// non-NaN value (covers signed zeros and infinities); NaN outputs must
/// be NaN everywhere, but the payload/sign is unspecified — the
/// compiler may commute `a + b` and IEEE leaves which operand's NaN
/// propagates to the implementation.
::testing::AssertionResult BitSame(double a, double b) {
  if (Bits(a) == Bits(b)) return ::testing::AssertionSuccess();
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hex << "0x" << Bits(a) << " (" << a << ") vs 0x" << Bits(b)
         << " (" << b << ")";
}

#define EXPECT_BIT_EQ(a, b) EXPECT_TRUE(BitSame((a), (b)))
#define ASSERT_BIT_EQ(a, b) ASSERT_TRUE(BitSame((a), (b)))

const std::vector<Level>& AllLevels() {
  static const std::vector<Level> kLevels = {Level::kScalar, Level::kNeon,
                                             Level::kAvx2, Level::kAvx512};
  return kLevels;
}

// Saves GBX_SIMD on construction, restores it (and re-resolves the
// dispatch cache) on destruction so one test's forced level never
// leaks into the next.
class ScopedSimdEnv {
 public:
  ScopedSimdEnv() {
    const char* prev = std::getenv("GBX_SIMD");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
  }
  ~ScopedSimdEnv() {
    if (had_prev_) {
      ::setenv("GBX_SIMD", prev_.c_str(), 1);
    } else {
      ::unsetenv("GBX_SIMD");
    }
    ReresolveFromEnvForTest();
  }

  /// Forces `level` through the same env + resolution path production
  /// code uses. Returns false (test should skip the level) when the
  /// host cannot run it.
  bool Force(Level level) {
    if (!Supported(level)) return false;
    ::setenv("GBX_SIMD", LevelName(level), 1);
    ReresolveFromEnvForTest();
    EXPECT_EQ(Active(), level);
    return true;
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

// The independent scalar oracle: plain row-major data, the exact
// sequential fold the kernels promise. Deliberately NOT the kernels.h
// helpers — a shared-helper bug must not cancel out.
double RefSquaredDistance(const double* q, const double* row, int d) {
  double s = 0.0;
  for (int j = 0; j < d; ++j) {
    const double diff = q[j] - row[j];
    s += diff * diff;
  }
  return s;
}

double RefSurfaceGap(const double* q, const double* row, double r, int d) {
  return std::sqrt(RefSquaredDistance(q, row, d)) - r;
}

double RefSurfaceScore(const double* q, const double* row, double r, int d) {
  const double dist = std::sqrt(RefSquaredDistance(q, row, d));
  return dist <= r ? dist - r : dist;
}

struct Case {
  int n;
  int d;
  Matrix rows;                // row-major oracle copy
  SoaMatrix soa;              // what the kernels see
  std::vector<double> radii;  // mixed sign/scale, some zero
  std::vector<double> q;
};

/// `specials` sprinkles NaN/inf into the data — including rows in the
/// final partial SoA block and into q — to prove propagation matches.
Case MakeCase(int n, int d, bool specials, std::uint64_t seed) {
  Case c;
  c.n = n;
  c.d = d;
  Pcg32 rng(seed);
  c.rows = Matrix(n, d, 0.0);
  c.soa = SoaMatrix(d);
  c.radii.resize(n);
  c.q.resize(d);
  for (int j = 0; j < d; ++j) c.q[j] = rng.NextGaussian() * 3.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      c.rows.Row(i)[j] = rng.NextGaussian() * (1.0 + j);
    }
    // Zero radius and tiny/huge radii hit both branches of the score
    // ternary; negative radii are legal inputs to the arithmetic.
    const double pick = rng.NextDouble();
    c.radii[i] = pick < 0.1 ? 0.0 : (pick < 0.2 ? -0.5 : rng.NextDouble() * 4);
  }
  if (specials) {
    // One special row early, one inside the remainder block (when the
    // shape has one), so both the vector path and the per-lane tail
    // path chew on non-finite input.
    c.rows.Row(0)[0] = Opaque(kNan);
    c.rows.Row(n / 2)[d - 1] = Opaque(kInf);
    const int tail_begin = (n / kSoaBlock) * kSoaBlock;
    if (tail_begin < n) c.rows.Row(n - 1)[0] = Opaque(-kInf);
    if (d >= 2) c.q[1] = Opaque(kInf);  // inf - inf = NaN vs the inf rows
    c.radii[n / 2] = Opaque(kInf);      // inf - inf in the gap/score path
  }
  for (int i = 0; i < n; ++i) c.soa.AppendRow(c.rows.Row(i));
  return c;
}

// Shapes: remainder lanes (n % 8 != 0) everywhere plus exact block
// multiples; d crosses every unroll boundary the kernels care about.
const int kNs[] = {1, 2, 3, 7, 8, 9, 13, 16, 23, 31, 64};
const int kDs[] = {1, 2, 3, 7, 8, 9, 15, 16, 17};

/// [begin, end) subranges for a given n: full, head-clipped,
/// tail-clipped, both, single row, empty.
std::vector<std::pair<int, int>> Ranges(int n) {
  std::vector<std::pair<int, int>> r = {{0, n}};
  if (n >= 2) {
    r.push_back({1, n});
    r.push_back({0, n - 1});
    r.push_back({n / 3, n - n / 4});
    r.push_back({n - 1, n});
  }
  r.push_back({n / 2, n / 2});  // empty
  if (n > kSoaBlock) {
    // Ranges whose interior contains whole aligned blocks plus ragged
    // head and tail lanes.
    r.push_back({3, n - 2});
    r.push_back({kSoaBlock, n});
    r.push_back({0, kSoaBlock + 1});
  }
  return r;
}

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  for (Level level : AllLevels()) {
    Level parsed = Level::kScalar;
    EXPECT_TRUE(ParseLevel(LevelName(level), &parsed)) << LevelName(level);
    EXPECT_EQ(parsed, level);
  }
  Level out = Level::kAvx2;
  EXPECT_FALSE(ParseLevel("auto", &out));
  EXPECT_FALSE(ParseLevel("AVX2", &out));
  EXPECT_FALSE(ParseLevel("", &out));
  EXPECT_EQ(out, Level::kAvx2);  // untouched on failure
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(Compiled(Level::kScalar));
  EXPECT_TRUE(Supported(Level::kScalar));
  EXPECT_TRUE(Supported(Active()));
}

TEST(SimdDispatchTest, SupportedImpliesCompiled) {
  for (Level level : AllLevels()) {
    if (Supported(level)) {
      EXPECT_TRUE(Compiled(level)) << LevelName(level);
    }
  }
}

TEST(SimdDispatchTest, ResolvePicksBestSupported) {
  Level best = Level::kScalar;
  for (Level level : AllLevels()) {
    if (Supported(level)) best = level;  // AllLevels is preference-ordered
  }
  EXPECT_EQ(ResolveLevel(nullptr), best);
  EXPECT_EQ(ResolveLevel(""), best);
  EXPECT_EQ(ResolveLevel("auto"), best);
  EXPECT_EQ(ResolveLevel("definitely-not-an-isa"), best);
}

TEST(SimdDispatchTest, UnsupportedRequestFallsBackBelow) {
  // Requesting any level resolves to a supported one; when the request
  // itself is unsupported, resolution must land strictly below it.
  for (Level level : AllLevels()) {
    const Level got = ResolveLevel(LevelName(level));
    EXPECT_TRUE(Supported(got)) << LevelName(level);
    if (Supported(level)) {
      EXPECT_EQ(got, level);
    } else {
      EXPECT_LT(static_cast<int>(got), static_cast<int>(level))
          << LevelName(level);
    }
  }
}

TEST(SimdDispatchTest, EnvOverrideRoundTripsThroughResolver) {
  ScopedSimdEnv env;
  for (Level level : AllLevels()) {
    ::setenv("GBX_SIMD", LevelName(level), 1);
    ReresolveFromEnvForTest();
    EXPECT_EQ(Active(), ResolveLevel(LevelName(level))) << LevelName(level);
    EXPECT_STREQ(ActiveName(), LevelName(Active()));
  }
  // Garbage and "auto" both land on the best supported level — and the
  // process keeps serving rather than dying on a bad env var.
  ::setenv("GBX_SIMD", "garbage", 1);
  ReresolveFromEnvForTest();
  EXPECT_EQ(Active(), ResolveLevel(nullptr));
}

TEST(SimdDispatchTest, SetLevelForTestSwitchesActive) {
  ScopedSimdEnv env;
  for (Level level : AllLevels()) {
    if (!Supported(level)) continue;
    SetLevelForTest(level);
    EXPECT_EQ(Active(), level);
  }
}

class SimdKernelOracleTest : public ::testing::Test {
 protected:
  // Runs `body(case)` under every supported dispatch level for every
  // (n, d, specials) shape. The reference never depends on the forced
  // level, so any cross-level drift fails loudly.
  template <typename Body>
  void ForAllLevelsAndShapes(Body body) {
    ScopedSimdEnv env;
    int levels_run = 0;
    for (Level level : AllLevels()) {
      if (!env.Force(level)) {
        LogSkip(level);
        continue;
      }
      ++levels_run;
      for (int n : kNs) {
        for (int d : kDs) {
          for (bool specials : {false, true}) {
            // Seed depends on shape only: every level sees the SAME
            // data, so the oracle values can be compared across levels
            // too (transitively, via the shared reference).
            const std::uint64_t seed =
                0x5eedULL * 1000003ULL + n * 131ULL + d * 7ULL + specials;
            const Case c = MakeCase(n, d, specials, seed);
            body(c);
            if (HasFailure()) {
              ADD_FAILURE() << "level=" << LevelName(level) << " n=" << n
                            << " d=" << d << " specials=" << specials;
              return;
            }
          }
        }
      }
    }
    // Scalar is unconditionally supported: at least one path must run.
    EXPECT_GE(levels_run, 1);
  }

  static void LogSkip(Level level) {
    std::fprintf(stderr, "[ skipped ] level %s not supported on this host\n",
                 LevelName(level));
  }
};

TEST_F(SimdKernelOracleTest, SquaredDistanceBatchBitExact) {
  ForAllLevelsAndShapes([](const Case& c) {
    for (auto [begin, end] : Ranges(c.n)) {
      // Canary-fill so absolute indexing (and untouched slots outside
      // [begin, end)) is verified, not assumed.
      std::vector<double> out(c.n, -7777.25);
      SquaredDistanceBatch(c.q.data(), c.soa, begin, end, out.data());
      for (int i = 0; i < c.n; ++i) {
        if (i >= begin && i < end) {
          EXPECT_BIT_EQ(out[i],
                        RefSquaredDistance(c.q.data(), c.rows.Row(i), c.d))
              << "i=" << i << " range=[" << begin << "," << end << ")";
        } else {
          EXPECT_BIT_EQ(out[i], -7777.25) << "clobbered i=" << i;
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  });
}

TEST_F(SimdKernelOracleTest, MinSurfaceGapBitExact) {
  ForAllLevelsAndShapes([](const Case& c) {
    for (auto [begin, end] : Ranges(c.n)) {
      double ref = kInf;
      for (int i = begin; i < end; ++i) {
        // The scalar fold: NaN gaps drop out (comparison is false).
        ref = std::min(
            ref, RefSurfaceGap(c.q.data(), c.rows.Row(i), c.radii[i], c.d));
      }
      const double got =
          MinSurfaceGap(c.q.data(), c.soa, c.radii.data(), begin, end);
      EXPECT_BIT_EQ(got, ref) << "range=[" << begin << "," << end << ")";
      if (::testing::Test::HasFailure()) return;
    }
  });
}

TEST_F(SimdKernelOracleTest, SurfaceScoresBitExact) {
  ForAllLevelsAndShapes([](const Case& c) {
    for (auto [begin, end] : Ranges(c.n)) {
      std::vector<double> out(c.n, -7777.25);
      SurfaceScores(c.q.data(), c.soa, c.radii.data(), begin, end, out.data());
      for (int i = 0; i < c.n; ++i) {
        if (i >= begin && i < end) {
          EXPECT_BIT_EQ(out[i], RefSurfaceScore(c.q.data(), c.rows.Row(i),
                                                c.radii[i], c.d))
              << "i=" << i << " range=[" << begin << "," << end << ")";
        } else {
          EXPECT_BIT_EQ(out[i], -7777.25) << "clobbered i=" << i;
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  });
}

// The fused top-k oracle: partial_sort over (score, row) pairs with the
// documented NaN rule (a NaN score ranks and reports as +inf). k walks
// one slot, a few, one full block, a block plus one, every row and past
// every row.
std::vector<std::pair<double, int>> RefTopK(const Case& c, int begin, int end,
                                            int k) {
  std::vector<std::pair<double, int>> pairs;
  for (int i = begin; i < end; ++i) {
    const double s =
        RefSurfaceScore(c.q.data(), c.rows.Row(i), c.radii[i], c.d);
    pairs.emplace_back(std::isnan(s) ? kInf : s, i);
  }
  const std::size_t kk = std::min<std::size_t>(std::max(k, 0), pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + kk, pairs.end());
  pairs.resize(kk);
  return pairs;
}

::testing::AssertionResult TopKMatches(const Case& c, int begin, int end,
                                       int k) {
  const std::vector<std::pair<double, int>> want = RefTopK(c, begin, end, k);
  std::vector<std::pair<double, int>> got(want.size() + 1, {-7777.25, -1});
  const int n = SurfaceTopK(c.q.data(), c.soa, c.radii.data(), begin, end, k,
                            got.data());
  if (n != static_cast<int>(want.size())) {
    return ::testing::AssertionFailure() << "count " << n << " want "
                                         << want.size();
  }
  for (std::size_t j = 0; j < want.size(); ++j) {
    if (got[j].second != want[j].second ||
        !BitSame(got[j].first, want[j].first)) {
      return ::testing::AssertionFailure()
             << "rank " << j << ": (" << got[j].first << ", " << got[j].second
             << ") want (" << want[j].first << ", " << want[j].second << ")";
    }
  }
  if (got[want.size()].second != -1) {
    return ::testing::AssertionFailure() << "wrote past the result";
  }
  return ::testing::AssertionSuccess();
}

TEST_F(SimdKernelOracleTest, SurfaceTopKMatchesPartialSort) {
  ForAllLevelsAndShapes([](const Case& c) {
    for (auto [begin, end] : Ranges(c.n)) {
      for (int k : {1, 2, 3, 5, kSoaBlock, kSoaBlock + 1, c.n, c.n + 3}) {
        EXPECT_TRUE(TopKMatches(c, begin, end, k))
            << "k=" << k << " range=[" << begin << "," << end << ")";
        if (::testing::Test::HasFailure()) return;
      }
    }
  });
}

// Exact ties go to the lower row: every row of a long run duplicates one
// of three points with equal radii, so whole blocks tie lane for lane
// and across lanes, and the winners sit in the head, a middle block and
// the tail in turn.
TEST_F(SimdKernelOracleTest, SurfaceTopKTiesGoToLowerRow) {
  ScopedSimdEnv env;
  for (Level level : AllLevels()) {
    if (!env.Force(level)) continue;
    for (int n : {9, 40, 203}) {
      Case c = MakeCase(n, 5, /*specials=*/false, 77 + n);
      c.soa = SoaMatrix(c.d);
      for (int i = 0; i < n; ++i) {
        const std::vector<double> src(c.rows.Row(i % 3),
                                      c.rows.Row(i % 3) + c.d);
        std::copy(src.begin(), src.end(), c.rows.Row(i));
        c.radii[i] = 0.25;
        c.soa.AppendRow(c.rows.Row(i));
      }
      for (auto [begin, end] : Ranges(n)) {
        for (int k : {1, 2, 4, 11, n}) {
          ASSERT_TRUE(TopKMatches(c, begin, end, k))
              << LevelName(level) << " n=" << n << " k=" << k << " range=["
              << begin << "," << end << ")";
        }
      }
    }
  }
}

// Infinite and NaN scores: -inf (an infinite radius around a finite
// distance) ranks first, +inf (an infinite coordinate) after every
// finite score, and NaN (inf - inf) as +inf — tied with the +inf rows
// and ordered among them by row. Placed in the head, a full block and
// the tail.
TEST_F(SimdKernelOracleTest, SurfaceTopKInfinitiesAndNaN) {
  ScopedSimdEnv env;
  const int n = 29;
  const int d = 3;
  Case c = MakeCase(n, d, /*specials=*/false, 4242);
  c.soa = SoaMatrix(d);
  for (int i : {1, 12, 27}) c.radii[i] = Opaque(kInf);  // score -inf
  for (int i : {2, 9, 10, 26}) c.rows.Row(i)[1] = Opaque(kInf);  // +inf
  for (int i : {0, 11, 28}) {  // dist = r = inf: inf - inf = NaN
    c.rows.Row(i)[0] = Opaque(kInf);
    c.radii[i] = Opaque(kInf);
  }
  for (int i = 0; i < n; ++i) c.soa.AppendRow(c.rows.Row(i));
  const double s0 =
      RefSurfaceScore(c.q.data(), c.rows.Row(0), c.radii[0], d);
  ASSERT_TRUE(std::isnan(s0)) << "row 0 must score NaN";
  for (Level level : AllLevels()) {
    if (!env.Force(level)) continue;
    for (auto [begin, end] : Ranges(n)) {
      for (int k : {1, 2, 3, 4, 9, n}) {
        ASSERT_TRUE(TopKMatches(c, begin, end, k))
            << LevelName(level) << " k=" << k << " range=[" << begin << ","
            << end << ")";
      }
    }
    // Rows 0..2 score NaN, -inf, +inf: the NaN row reports +inf and
    // ranks ahead of row 2 by its index.
    std::pair<double, int> top[3];
    ASSERT_EQ(SurfaceTopK(c.q.data(), c.soa, c.radii.data(), 0, 3, 3, top),
              3);
    EXPECT_EQ(top[0], std::make_pair(-kInf, 1)) << LevelName(level);
    EXPECT_EQ(top[1], std::make_pair(kInf, 0)) << LevelName(level);
    EXPECT_EQ(top[2], std::make_pair(kInf, 2)) << LevelName(level);
  }
}

// The fused multi-query k-nearest oracle: per query, partial_sort over
// the (squared distance, row) pairs of the live rows in range other
// than its excluded row, with a NaN distance ranking and reporting as
// +inf. Cases: random rows; rows that repeat three points, so exact
// ties run across lanes and blocks; and rows and queries with +-inf and
// NaN coordinates.
struct MultiCase {
  int n;
  int d;
  Matrix rows;
  SoaMatrix soa;
  Matrix queries;  // kMaxQueries rows
};

constexpr int kMaxQueries = 17;
enum class RowKind { kRandom, kDuplicates, kSpecials };

MultiCase MakeMultiCase(int n, int d, RowKind kind, std::uint64_t seed) {
  MultiCase c{n, d, Matrix(n, d, 0.0), SoaMatrix(d),
              Matrix(kMaxQueries, d, 0.0)};
  Pcg32 rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      c.rows.Row(i)[j] = kind == RowKind::kDuplicates && i >= 3
                             ? c.rows.Row(i % 3)[j]
                             : rng.NextGaussian();
    }
  }
  for (int g = 0; g < kMaxQueries; ++g) {
    // Every third query sits on a row, so its own row ties at 0.
    for (int j = 0; j < d; ++j) {
      c.queries.Row(g)[j] =
          g % 3 == 0 ? c.rows.Row((g * 11) % n)[j] : rng.NextGaussian() * 2;
    }
  }
  if (kind == RowKind::kSpecials) {
    for (int i = 0; i < n; i += 5) c.rows.Row(i)[i % d] = Opaque(kNan);
    for (int i = 2; i < n; i += 7) c.rows.Row(i)[(i + 1) % d] = Opaque(kInf);
    for (int i = 4; i < n; i += 9) c.rows.Row(i)[0] = Opaque(-kInf);
    c.queries.Row(1)[0] = Opaque(kInf);  // inf - inf = NaN vs the inf rows
    c.queries.Row(4)[d - 1] = Opaque(kNan);  // every distance NaN
  }
  for (int i = 0; i < n; ++i) c.soa.AppendRow(c.rows.Row(i));
  return c;
}

::testing::AssertionResult SquaredTopKMatches(const MultiCase& c, int nq,
                                              const std::uint8_t* live,
                                              const std::vector<int>& exclude,
                                              int begin, int end, int k) {
  std::vector<const double*> queries(nq);
  for (int g = 0; g < nq; ++g) queries[g] = c.queries.Row(g);
  const std::pair<double, int> canary(-7777.25, -1);
  std::vector<std::pair<double, int>> got(
      static_cast<std::size_t>(nq) * k + 1, canary);
  std::vector<int> counts(nq, -1);
  SquaredTopK(queries.data(), nq, c.soa, live, exclude.data(), begin, end, k,
              got.data(), counts.data());
  for (int g = 0; g < nq; ++g) {
    std::vector<std::pair<double, int>> want;
    for (int i = begin; i < end; ++i) {
      if ((live != nullptr && live[i] == 0) || i == exclude[g]) continue;
      const double d2 = RefSquaredDistance(queries[g], c.rows.Row(i), c.d);
      want.emplace_back(std::isnan(d2) ? kInf : d2, i);
    }
    const std::size_t kk = std::min<std::size_t>(k, want.size());
    std::partial_sort(want.begin(), want.begin() + kk, want.end());
    want.resize(kk);
    if (counts[g] != static_cast<int>(kk)) {
      return ::testing::AssertionFailure()
             << "query " << g << ": count " << counts[g] << " want " << kk;
    }
    const std::pair<double, int>* list =
        got.data() + static_cast<std::size_t>(g) * k;
    for (std::size_t r = 0; r < kk; ++r) {
      if (list[r].second != want[r].second ||
          !BitSame(list[r].first, want[r].first)) {
        return ::testing::AssertionFailure()
               << "query " << g << " rank " << r << ": (" << list[r].first
               << ", " << list[r].second << ") want (" << want[r].first
               << ", " << want[r].second << ")";
      }
    }
    for (int r = static_cast<int>(kk); r < k; ++r) {
      if (list[r] != canary) {
        return ::testing::AssertionFailure()
               << "query " << g << " wrote past its list at " << r;
      }
    }
  }
  if (got.back() != canary) {
    return ::testing::AssertionFailure() << "wrote past the last list";
  }
  return ::testing::AssertionSuccess();
}

TEST_F(SimdKernelOracleTest, SquaredTopKMatchesPartialSort) {
  ScopedSimdEnv env;
  const int n = 75;  // 9 blocks and a 3-row tail
  for (Level level : AllLevels()) {
    if (!env.Force(level)) {
      LogSkip(level);
      continue;
    }
    const int width = SquaredTopKQueriesPerPass();
    ASSERT_GE(width, 1);
    for (int d : {1, 2, 3, 10, 256}) {
      for (RowKind kind :
           {RowKind::kRandom, RowKind::kDuplicates, RowKind::kSpecials}) {
        const MultiCase c =
            MakeMultiCase(n, d, kind, 0x70bULL * 1000003ULL + d * 31ULL +
                                          static_cast<std::uint64_t>(kind));
        // Null mask, all dead, alternating, and 1 in 5 dead.
        std::vector<std::vector<std::uint8_t>> masks = {
            {}, std::vector<std::uint8_t>(n, 0), {}, {}};
        for (int i = 0; i < n; ++i) {
          masks[2].push_back(i % 2);
          masks[3].push_back(i % 5 == 2 ? 0 : 7);  // any nonzero is live
        }
        for (const std::vector<std::uint8_t>& mask : masks) {
          const std::uint8_t* live = mask.empty() ? nullptr : mask.data();
          // Whole range; ragged head and tail; a range inside one block.
          for (auto [begin, end] : std::vector<std::pair<int, int>>{
                   {0, n}, {3, n - 5}, {13, 61}, {17, 22}}) {
            int eligible = 0;
            for (int i = begin; i < end; ++i) {
              eligible += live == nullptr || live[i] != 0;
            }
            for (int nq : {1, 2, 7, width, width + 1, kMaxQueries}) {
              // Excludes: a row in the range (head, a block or the
              // tail), none, or a row outside it.
              std::vector<int> exclude(nq);
              for (int g = 0; g < nq; ++g) {
                exclude[g] =
                    g % 4 == 3 ? -1 : (g % 4 == 2 ? end : (g * 11) % n);
              }
              for (int k : {1, 5, 32, std::max(eligible, 1), eligible + 3}) {
                ASSERT_TRUE(SquaredTopKMatches(c, nq, live, exclude, begin,
                                               end, k))
                    << LevelName(level) << " d=" << d
                    << " kind=" << static_cast<int>(kind)
                    << " mask=" << (&mask - masks.data()) << " range=["
                    << begin << "," << end << ") nq=" << nq << " k=" << k;
              }
            }
          }
        }
      }
    }
  }
}

// The documented NaN rule on a hand-built case: rows 0..3 lie at NaN,
// +inf (a -inf coordinate), finite and NaN distances from the query and
// rows 4..10 at +inf, so the top four read (2, 2), (+inf, 0), (+inf, 1),
// (+inf, 3): NaN ties with +inf and yields to the lower row.
TEST_F(SimdKernelOracleTest, SquaredTopKNaNRanksAsInfinity) {
  ScopedSimdEnv env;
  const int d = 2;
  Matrix rows(11, d, 1.0);
  rows.Row(0)[0] = Opaque(kNan);
  rows.Row(1)[1] = Opaque(-kInf);
  rows.Row(3)[1] = Opaque(kNan);
  for (int i = 4; i < 11; ++i) rows.Row(i)[0] = Opaque(kInf);
  SoaMatrix soa(d);
  for (int i = 0; i < 11; ++i) soa.AppendRow(rows.Row(i));
  const double q[d] = {0.0, 0.0};
  const double* queries[1] = {q};
  const int exclude[1] = {-1};
  for (Level level : AllLevels()) {
    if (!env.Force(level)) continue;
    std::pair<double, int> top[4];
    int count = 0;
    SquaredTopK(queries, 1, soa, nullptr, exclude, 0, 11, 4, top, &count);
    ASSERT_EQ(count, 4) << LevelName(level);
    EXPECT_EQ(top[0], std::make_pair(2.0, 2)) << LevelName(level);
    EXPECT_EQ(top[1], std::make_pair(kInf, 0)) << LevelName(level);
    EXPECT_EQ(top[2], std::make_pair(kInf, 1)) << LevelName(level);
    EXPECT_EQ(top[3], std::make_pair(kInf, 3)) << LevelName(level);
  }
}

// All-NaN / all-inf stress: every row non-finite, so the whole vector
// path (not just one poisoned lane) exercises IEEE propagation.
TEST_F(SimdKernelOracleTest, NonFiniteEverywhere) {
  ScopedSimdEnv env;
  for (Level level : AllLevels()) {
    if (!env.Force(level)) continue;
    const int n = 13;  // one full block + 5-lane tail
    const int d = 4;
    Matrix rows(n, d, 0.0);
    SoaMatrix soa(d);
    std::vector<double> radii(n, 1.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) {
        rows.Row(i)[j] =
            Opaque((i % 3 == 0) ? kNan : (i % 3 == 1 ? kInf : -kInf));
      }
      soa.AppendRow(rows.Row(i));
    }
    const std::vector<double> q = {Opaque(kInf), 0.0, -1.0, Opaque(kNan)};
    std::vector<double> d2(n), scores(n);
    SquaredDistanceBatch(q.data(), soa, 0, n, d2.data());
    SurfaceScores(q.data(), soa, radii.data(), 0, n, scores.data());
    double ref_min = kInf;
    for (int i = 0; i < n; ++i) {
      ASSERT_BIT_EQ(d2[i], RefSquaredDistance(q.data(), rows.Row(i), d))
          << LevelName(level) << " i=" << i;
      ASSERT_BIT_EQ(scores[i],
                    RefSurfaceScore(q.data(), rows.Row(i), radii[i], d))
          << LevelName(level) << " i=" << i;
      ref_min =
          std::min(ref_min, RefSurfaceGap(q.data(), rows.Row(i), radii[i], d));
    }
    ASSERT_BIT_EQ(MinSurfaceGap(q.data(), soa, radii.data(), 0, n), ref_min)
        << LevelName(level);
  }
}

// GatherRows is the production compaction path (rd_gbg's resident U):
// scattered indices, reused buffer (Clear keeps capacity), ragged tail.
TEST_F(SimdKernelOracleTest, GatherRowsTilesBitExact) {
  ScopedSimdEnv env;
  Pcg32 rng(20260808);
  const int d = 9;
  const int total = 57;
  Matrix base(total, d, 0.0);
  for (int i = 0; i < total; ++i) {
    for (int j = 0; j < d; ++j) base.Row(i)[j] = rng.NextGaussian();
  }
  std::vector<double> q(d);
  for (int j = 0; j < d; ++j) q[j] = rng.NextGaussian();
  std::vector<int> idx(total);
  for (int i = 0; i < total; ++i) idx[i] = i;
  rng.Shuffle(&idx);
  for (Level level : AllLevels()) {
    if (!env.Force(level)) continue;
    SoaMatrix tile;  // reused across tiles, like the hot loop does
    std::vector<double> d2;
    for (int tile_size : {5, 8, 11, 16, 57}) {
      for (int t = 0; t < total; t += tile_size) {
        const int cnt = std::min(tile_size, total - t);
        tile.GatherRows(base, idx.data() + t, cnt);
        ASSERT_EQ(tile.rows(), cnt);
        d2.assign(cnt, -1.0);
        SquaredDistanceBatch(q.data(), tile, 0, cnt, d2.data());
        for (int r = 0; r < cnt; ++r) {
          ASSERT_BIT_EQ(d2[r],
                        RefSquaredDistance(q.data(), base.Row(idx[t + r]), d))
              << LevelName(level) << " tile_size=" << tile_size << " t=" << t
              << " r=" << r;
        }
      }
    }
  }
}

// The promise the whole PR rests on: outputs are identical ACROSS
// levels, not just each-vs-reference — checked directly for the level
// pairs the host supports.
TEST_F(SimdKernelOracleTest, CrossLevelIdentical) {
  ScopedSimdEnv env;
  const Case c = MakeCase(31, 17, /*specials=*/true, 0xc0ffee);
  std::vector<std::pair<Level, std::vector<double>>> per_level;
  std::vector<std::pair<Level, double>> gaps;
  for (Level level : AllLevels()) {
    if (!env.Force(level)) continue;
    std::vector<double> scores(c.n, 0.0);
    SurfaceScores(c.q.data(), c.soa, c.radii.data(), 0, c.n, scores.data());
    per_level.emplace_back(level, std::move(scores));
    gaps.emplace_back(level,
                      MinSurfaceGap(c.q.data(), c.soa, c.radii.data(), 0, c.n));
  }
  ASSERT_GE(per_level.size(), 1u);
  for (std::size_t l = 1; l < per_level.size(); ++l) {
    for (int i = 0; i < c.n; ++i) {
      ASSERT_BIT_EQ(per_level[l].second[i], per_level[0].second[i])
          << LevelName(per_level[l].first) << " vs "
          << LevelName(per_level[0].first) << " i=" << i;
    }
    ASSERT_BIT_EQ(gaps[l].second, gaps[0].second);
  }
}

TEST(SimdKernelEdgeTest, EmptyRangeContracts) {
  // +inf for an empty gap scan; batch/scores with begin==end touch
  // nothing (nullptr out must be safe for an empty range).
  SoaMatrix m(3);
  const double q[3] = {0, 0, 0};
  EXPECT_BIT_EQ(MinSurfaceGap(q, m, nullptr, 0, 0), kInf);
  SquaredDistanceBatch(q, m, 0, 0, nullptr);
  SurfaceScores(q, m, nullptr, 0, 0, nullptr);
  // An empty range or k <= 0 writes nothing and returns 0.
  EXPECT_EQ(SurfaceTopK(q, m, nullptr, 0, 0, 3, nullptr), 0);
  EXPECT_EQ(SurfaceTopK(q, m, nullptr, 0, 0, 0, nullptr), 0);
  // SquaredTopK reports 0 per query for an empty range or k <= 0.
  const double* queries[2] = {q, q};
  const int exclude[2] = {-1, -1};
  int counts[2] = {5, 5};
  SquaredTopK(queries, 2, m, nullptr, exclude, 0, 0, 3, nullptr, counts);
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 0);
  counts[0] = counts[1] = 5;
  SquaredTopK(queries, 2, m, nullptr, exclude, 0, 0, 0, nullptr, counts);
  EXPECT_EQ(counts[0] + counts[1], 0);
}

}  // namespace
}  // namespace simd
}  // namespace gbx
