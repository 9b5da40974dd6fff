// Command-line sampler: applies any of the library's sampling methods to a
// CSV dataset (numeric features, integer label in the last column) and
// writes the sampled CSV.
//
//   $ ./sampler_cli gbabs in.csv out.csv [--rho N] [--seed N]
//   $ ./sampler_cli tomek in.csv out.csv
//
// Methods: gbabs ggbs igbs srs smote bsm smnc tomek. A bad flag (unknown,
// missing its value, not one whole number, --rho below 2 or --ratio
// outside (0, 1]) exits 2 with a typed INVALID_ARGUMENT line and the
// usage text.
#include <cstdint>
#include <cstdio>
#include <string>

#include "gbx/gbx.h"

#include "cli_flags.h"

namespace {

int Usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s <gbabs|ggbs|igbs|srs|smote|bsm|smnc|tomek> "
               "<in.csv> <out.csv> [--rho N (>= 2)] [--seed N] "
               "[--ratio R (0, 1]]\n",
               program);
  return 2;
}

struct Flags {
  int rho = 5;
  std::uint64_t seed = 42;
  double ratio = 0.5;
};

bool Reject(const std::string& message) {
  return gbx::cli::Reject("sampler_cli", message);
}

// Flags after the three positionals; each numeric value must be one
// whole token.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  using gbx::cli::ParseNumber;
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Reject(flag + " needs a value");
    const char* v = argv[++i];
    if (flag == "--rho") {
      if (!ParseNumber(v, &flags->rho)) {
        return Reject(flag + " wants an integer, got '" + v + "'");
      }
      // RD-GBG's density tolerance: below 2 it aborts in a CHECK.
      if (flags->rho < 2) {
        return Reject(std::string("--rho must be >= 2, got ") + v);
      }
    } else if (flag == "--seed") {
      if (!ParseNumber(v, &flags->seed)) {
        return Reject(flag + " wants an integer, got '" + v + "'");
      }
    } else if (flag == "--ratio") {
      if (!ParseNumber(v, &flags->ratio)) {
        return Reject(flag + " wants a number, got '" + v + "'");
      }
      // SrsSampler CHECKs the same range.
      if (flags->ratio <= 0.0 || flags->ratio > 1.0) {
        return Reject(std::string("--ratio must be in (0, 1], got ") + v);
      }
    } else {
      return Reject("unknown flag " + flag);
    }
  }
  return true;
}

bool ParseKind(const std::string& name, gbx::SamplerKind* kind) {
  using gbx::SamplerKind;
  if (name == "gbabs") *kind = SamplerKind::kGbabs;
  else if (name == "ggbs") *kind = SamplerKind::kGgbs;
  else if (name == "igbs") *kind = SamplerKind::kIgbs;
  else if (name == "srs") *kind = SamplerKind::kSrs;
  else if (name == "smote") *kind = SamplerKind::kSmote;
  else if (name == "bsm") *kind = SamplerKind::kBorderlineSmote;
  else if (name == "smnc") *kind = SamplerKind::kSmotenc;
  else if (name == "tomek") *kind = SamplerKind::kTomek;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbx;
  if (argc < 4) return Usage(argv[0]);
  SamplerKind kind;
  if (!ParseKind(argv[1], &kind)) {
    std::fprintf(stderr, "unknown sampler '%s'\n", argv[1]);
    return 2;
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);

  const StatusOr<Dataset> loaded = LoadCsv(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", argv[2],
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %s: %d samples, %d features, %d classes (IR %.2f)\n",
              argv[2], loaded->size(), loaded->num_features(),
              loaded->num_classes(), loaded->ImbalanceRatio());

  std::unique_ptr<Sampler> sampler;
  if (kind == SamplerKind::kGbabs) {
    GbabsConfig cfg;
    cfg.gbg.density_tolerance = flags.rho;
    sampler = std::make_unique<GbabsSampler>(cfg);
  } else if (kind == SamplerKind::kSrs) {
    sampler = std::make_unique<SrsSampler>(flags.ratio);
  } else {
    sampler = MakeSampler(kind);
  }

  Pcg32 rng(flags.seed);
  const Stopwatch watch;
  const Dataset sampled = sampler->Sample(*loaded, &rng);
  std::printf("%s: %d -> %d samples (ratio %.3f) in %.0f ms\n",
              sampler->name().c_str(), loaded->size(), sampled.size(),
              static_cast<double>(sampled.size()) / loaded->size(),
              watch.ElapsedMillis());

  const Status status = SaveCsv(sampled, argv[3]);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", argv[3],
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", argv[3]);
  return 0;
}
