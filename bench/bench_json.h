// --json=FILE support for the google-benchmark suites
// (bench_granulation, bench_index_dynamic): a reporter that keeps the
// normal console output and additionally tees every measured run into a
// flat JSON array of rows
//     {"op": "RdGbgStrategy", "n": 20000, "d": 8, "strategy": "balltree",
//      "simd": "avx512", "ms": 123.4}
// — the machine-readable perf trajectory committed as BENCH_pr5.json /
// BENCH_pr9.json and uploaded as a CI artifact. Rows carry the
// benchmark's ArgNames verbatim (n, d, threads, ...) plus the adjusted
// real time in the benchmark's declared unit (every suite here uses
// milliseconds); the `strategy` and `simd` arguments are translated
// through the IndexStrategy / simd::Level naming so downstream tooling
// never has to know the enum encodings. Every row carries a `simd`
// field: the benchmark's own axis when it sweeps dispatch levels
// explicitly, else the process-wide active level (GBX_SIMD-resolved) —
// so a perf row is never ambiguous about which kernels produced it.
#ifndef GBX_BENCH_BENCH_JSON_H_
#define GBX_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "index/index_strategy.h"
#include "simd/simd.h"

namespace gbx {
namespace benchjson {

/// The one strategy-axis encoding shared by every suite and by the JSON
/// reporter's name mapping below: 0 flat, 1 tree (KD), 2 balltree,
/// 4 auto. 3 and 5 are retired (3 named a deleted r_conf index, 5 the
/// deleted approximate "sampled" tier); the other values keep their
/// numbers so older BENCH_*.json rows stay comparable.
inline IndexStrategy StrategyFromAxis(int value) {
  switch (value) {
    case 1:
      return IndexStrategy::kTree;
    case 2:
      return IndexStrategy::kBallTree;
    case 4:
      return IndexStrategy::kAuto;
    default:
      return IndexStrategy::kFlat;
  }
}

/// Removes a `--json=FILE` flag from argv (benchmark::Initialize would
/// reject it) and returns FILE, or "" when absent.
inline std::string ExtractJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRowReporter(std::string path) : path_(std::move(path)) {}

  ~JsonRowReporter() override {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      rows_.push_back(RowJson(run));
    }
  }

 private:
  static const char* StrategyName(long long value) {
    switch (value) {
      case 0:
        return "flat";
      case 1:
        return "tree";
      case 2:
        return "balltree";
      case 4:
        return "auto";
    }
    return "unknown";
  }

  // "BM_DrainKnn/n:2000/d:8/strategy:1/real_time" -> one flat row. Name
  // segments that are not key:value pairs (the op, /real_time, repeat
  // suffixes) are skipped.
  static std::string RowJson(const Run& run) {
    const std::string name = run.benchmark_name();
    std::string op;
    std::string fields;
    std::size_t start = 0;
    bool first_segment = true;
    bool has_simd = false;
    while (start <= name.size()) {
      std::size_t slash = name.find('/', start);
      if (slash == std::string::npos) slash = name.size();
      const std::string segment = name.substr(start, slash - start);
      start = slash + 1;
      if (first_segment) {
        first_segment = false;
        op = segment.rfind("BM_", 0) == 0 ? segment.substr(3) : segment;
        continue;
      }
      const std::size_t colon = segment.find(':');
      if (colon == std::string::npos) continue;
      const std::string key = segment.substr(0, colon);
      const std::string value = segment.substr(colon + 1);
      if (value.empty() ||
          value.find_first_not_of("-0123456789") != std::string::npos) {
        continue;
      }
      char buf[128];
      if (key == "strategy") {
        std::snprintf(buf, sizeof(buf), ", \"strategy\": \"%s\"",
                      StrategyName(std::stoll(value)));
      } else if (key == "simd") {
        // Explicit dispatch-level axis (simd::Level enum ints).
        has_simd = true;
        std::snprintf(buf, sizeof(buf), ", \"simd\": \"%s\"",
                      simd::LevelName(
                          static_cast<simd::Level>(std::stoll(value))));
      } else {
        std::snprintf(buf, sizeof(buf), ", \"%s\": %s", key.c_str(),
                      value.c_str());
      }
      fields += buf;
    }
    if (!has_simd) {
      fields += ", \"simd\": \"";
      fields += simd::ActiveName();
      fields += "\"";
    }
    char row[512];
    std::snprintf(row, sizeof(row), "{\"op\": \"%s\"%s, \"ms\": %.4f}",
                  op.c_str(), fields.c_str(), run.GetAdjustedRealTime());
    return row;
  }

  std::string path_;
  std::vector<std::string> rows_;
};

/// The shared main(): plain google-benchmark flags plus --json=FILE.
inline int BenchMain(int argc, char** argv) {
  const std::string json_path = ExtractJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonRowReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace benchjson
}  // namespace gbx

#endif  // GBX_BENCH_BENCH_JSON_H_
