#include "simd/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/check.h"
#include "common/log.h"
#include "simd/kernels.h"

namespace gbx {
namespace simd {

namespace {

using internal::Ops;

const Ops* OpsFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return internal::ScalarOps();
    case Level::kNeon:
      return internal::NeonOps();
    case Level::kAvx2:
      return internal::Avx2Ops();
    case Level::kAvx512:
      return internal::Avx512Ops();
  }
  return internal::ScalarOps();
}

bool CpuSupports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kNeon:
#if defined(__aarch64__)
      // ASIMD is architecturally mandatory on aarch64.
      return true;
#else
      return false;
#endif
    case Level::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Level::kAvx512:
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

Level BestSupported() {
  for (Level level : {Level::kAvx512, Level::kAvx2, Level::kNeon}) {
    if (Supported(level)) return level;
  }
  return Level::kScalar;
}

// The cached resolution. g_ops is the load-bearing pointer the kernel
// entry points read; g_level mirrors it for Active()/ActiveName().
// Store order (ops release-last) plus acquire loads keeps the pair
// consistent; a benign race on first use re-resolves idempotently.
std::atomic<const Ops*> g_ops{nullptr};
std::atomic<int> g_level{-1};

void Store(Level level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_ops.store(OpsFor(level), std::memory_order_release);
}

Level ResolveFromEnv() { return ResolveLevel(std::getenv("GBX_SIMD")); }

const Ops* ActiveOps() {
  const Ops* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    Store(ResolveFromEnv());
    ops = g_ops.load(std::memory_order_acquire);
  }
  return ops;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNeon:
      return "neon";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool ParseLevel(const std::string& text, Level* out) {
  for (Level level : {Level::kScalar, Level::kNeon, Level::kAvx2,
                      Level::kAvx512}) {
    if (text == LevelName(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

bool Compiled(Level level) { return OpsFor(level) != nullptr; }

bool Supported(Level level) { return Compiled(level) && CpuSupports(level); }

Level ResolveLevel(const char* requested) {
  const Level best = BestSupported();
  if (requested == nullptr || *requested == '\0') return best;
  const std::string text(requested);
  if (text == "auto") return best;
  Level want;
  if (!ParseLevel(text, &want)) {
    GBX_SLOG(kWarn, "simd.env_unknown")
        .Kv("GBX_SIMD", text)
        .Kv("using", LevelName(best));
    return best;
  }
  if (Supported(want)) return want;
  // Fall back to the best supported level strictly below the request —
  // GBX_SIMD=avx512 on an AVX2-only host degrades to avx2, not to the
  // unrelated best (identical here, but the invariant matters when the
  // request is below best, e.g. neon on x86 -> scalar).
  Level fallback = Level::kScalar;
  for (Level level : {Level::kAvx512, Level::kAvx2, Level::kNeon}) {
    if (static_cast<int>(level) < static_cast<int>(want) &&
        Supported(level)) {
      fallback = level;
      break;
    }
  }
  GBX_SLOG(kWarn, "simd.unsupported")
      .Kv("requested", text)
      .Kv("using", LevelName(fallback));
  return fallback;
}

Level Active() {
  const int cached = g_level.load(std::memory_order_relaxed);
  if (cached >= 0 && g_ops.load(std::memory_order_acquire) != nullptr) {
    return static_cast<Level>(cached);
  }
  const Level level = ResolveFromEnv();
  Store(level);
  return level;
}

const char* ActiveName() { return LevelName(Active()); }

void SetLevelForTest(Level level) {
  GBX_CHECK_MSG(Supported(level),
                "simd: SetLevelForTest on an unsupported level");
  Store(level);
}

void ReresolveFromEnvForTest() { Store(ResolveFromEnv()); }

void SquaredDistanceBatch(const double* q, const SoaMatrix& points, int begin,
                          int end, double* out) {
  ActiveOps()->squared_distance_batch(q, points, begin, end, out);
}

double MinSurfaceGap(const double* q, const SoaMatrix& centers,
                     const double* radii, int begin, int end) {
  return ActiveOps()->min_surface_gap(q, centers, radii, begin, end);
}

void SurfaceScores(const double* q, const SoaMatrix& centers,
                   const double* radii, int begin, int end, double* out) {
  ActiveOps()->surface_scores(q, centers, radii, begin, end, out);
}

int SurfaceTopK(const double* q, const SoaMatrix& centers, const double* radii,
                int begin, int end, int k, std::pair<double, int>* out) {
  k = std::min(k, end - begin);
  if (k <= 0) return 0;
  return ActiveOps()->surface_top_k(q, centers, radii, begin, end, k, out);
}

void SquaredTopK(const double* const* queries, int num_queries,
                 const SoaMatrix& rows, const std::uint8_t* live,
                 const int* exclude, int begin, int end, int k,
                 std::pair<double, int>* out, int* counts) {
  if (k <= 0 || begin >= end) {
    std::fill(counts, counts + num_queries, 0);
    return;
  }
  const Ops* ops = ActiveOps();
  for (int g = 0; g < num_queries; g += ops->squared_top_k_queries) {
    ops->squared_top_k(queries + g,
                       std::min(ops->squared_top_k_queries, num_queries - g),
                       rows, live, exclude + g, begin, end, k,
                       out + static_cast<std::size_t>(g) * k, counts + g);
  }
}

int SquaredTopKQueriesPerPass() { return ActiveOps()->squared_top_k_queries; }

}  // namespace simd
}  // namespace gbx
