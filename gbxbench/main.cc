// gbxbench: end-to-end benchmark of the gbx pipeline.
//
// One process runs one workload: a paper-suite stand-in dataset is
// generated from --seed, the paper's RD-GBG -> GBABS pipeline is timed on
// it, and a GB-kNN model trained on the same data is served over loopback
// by an in-process Server and driven by an open-loop client with held-out
// rows of the same generator. See README.md for the workloads, the
// metrics and the layer each per-layer number belongs to.
//
//   gbxbench --workload NAME --seed N --seconds S --trace 0|1
//            [--workdir DIR] [--golden FILE] [--commit ID]
//   gbxbench --workload NAME --seed N --print-golden
//
// The last line of stdout is the result object; the line before it holds
// run metadata and every phase's counts.
#include <sys/resource.h>
#include <sys/types.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "client.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/gbabs.h"
#include "data/noise.h"
#include "data/paper_suite.h"
#include "data/split.h"
#include "layers.h"
#include "ml/gb_knn.h"
#include "serve/model_io.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "simd/simd.h"

namespace gbxbench {
namespace {

/// JSON string literal for `s` (quotes, backslashes and control bytes
/// escaped).
std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// A finite double as JSON with all 17 significant digits; non-finite
/// values become null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // paper-suite id (data/paper_suite.h)
  int train_n;
  int query_n;
  double class_noise;  // share of training labels flipped
  double low_qps;
  double high_qps;
  int fit_draws;  // draws of the generator the fit phase cycles over
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"magic", "S10", 8000, 2000, 0.10, 500, 1500, 3},
    {"usps", "S13", 2000, 1000, 0.0, 250, 600, 3},
    {"banana", "S5", 4000, 1300, 0.0, 500, 2000, 8},
};

constexpr int kWorkers = 2;
constexpr int kPredictConns = 2;
constexpr int kSetups = 3;
constexpr double kFitShare = 0.4;   // of --seconds
constexpr double kRoundShare = 0.2;  // serving rounds per second of --seconds
constexpr double kLowWindowS = 2.0;
constexpr double kHighWindowS = 1.0;
constexpr double kSatWindowS = 0.5;
constexpr int kSatInFlight = 16;     // per connection, closed loop
constexpr double kHealthRate = 50.0;
constexpr double kScrapeRate = 1.0;
// A phase whose generator ran later than this at p99 is marked invalid.
constexpr double kMaxLateP99Ms = 5.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool print_golden = false;
  std::string workdir = ".";
  std::string golden;
  std::string commit = "unknown";
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--print-golden") {
      o->print_golden = true;
    } else if (a == "--workload") {
      if (!value(&o->workload)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      if (!value(&v)) return false;
      o->trace = v == "1";
    } else if (a == "--workdir") {
      if (!value(&o->workdir)) return false;
    } else if (a == "--golden") {
      if (!value(&o->golden)) return false;
    } else if (a == "--commit") {
      if (!value(&o->commit)) return false;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

// --- inputs ---------------------------------------------------------------

struct Inputs {
  gbx::Dataset train;  // what RunGbabs and the served GB-kNN fit on
  gbx::Matrix queries;  // held-out rows of the same generator
};

/// The seed of draw `draw` of a run: draw 0 uses the run's seed (it is
/// the one the served model is trained on), later draws derive their own.
/// A draw's seed drives both its data and its RD-GBG candidate stream.
std::uint64_t DrawSeed(std::uint64_t seed, int draw) {
  return draw == 0 ? seed
                   : seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(draw));
}

Inputs MakeInputs(const WorkloadSpec& w, std::uint64_t seed) {
  const gbx::Dataset all =
      gbx::MakePaperDataset(w.dataset, w.train_n + w.query_n, seed);
  gbx::Pcg32 split_rng(seed, 1);
  gbx::TrainTestSplitResult split = gbx::TrainTestSplit(
      all, static_cast<double>(w.query_n) / all.size(), &split_rng);
  Inputs in;
  in.queries = split.test.x();
  if (w.class_noise > 0) {
    gbx::Pcg32 noise_rng(seed, 2);
    in.train = gbx::WithClassNoise(split.train, w.class_noise, &noise_rng);
  } else {
    in.train = std::move(split.train);
  }
  return in;
}

gbx::RdGbgConfig GbgConfig(std::uint64_t seed) {
  gbx::RdGbgConfig c;
  c.seed = seed;
  return c;
}

// --- training -------------------------------------------------------------

struct FitSummary {
  int balls = 0;
  int noise = 0;
  int orphans = 0;
  int iterations = 0;
  int sampled = 0;
  int borderline = 0;
  int nonsingleton = 0;
  std::uint64_t sampled_fnv = 0;
  bool operator==(const FitSummary&) const = default;
};

FitSummary Summarize(const gbx::GbabsResult& r) {
  FitSummary s;
  s.balls = r.gbg.balls.size();
  s.noise = static_cast<int>(r.gbg.noise_indices.size());
  s.orphans = static_cast<int>(r.gbg.orphan_indices.size());
  s.iterations = r.gbg.iterations;
  s.sampled = static_cast<int>(r.sampled_indices.size());
  s.borderline = static_cast<int>(r.borderline_ball_ids.size());
  s.nonsingleton = r.gbg.balls.NonSingletonCount();
  std::string bytes;
  for (int i : r.sampled_indices) bytes += std::to_string(i) + ",";
  s.sampled_fnv = gbx::Fnv1a64(bytes);
  return s;
}

std::string GoldenLine(const std::string& workload, std::uint64_t seed,
                       const FitSummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s %" PRIu64 " %d %d %d %d %d %d %016" PRIx64,
                workload.c_str(), seed, s.balls, s.noise, s.orphans,
                s.iterations, s.sampled, s.borderline, s.sampled_fnv);
  return buf;
}

/// The recorded line for (workload, seed), or "" when the file has none.
std::string FindGolden(const std::string& path, const std::string& workload,
                       std::uint64_t seed) {
  std::ifstream in(path);
  const std::string prefix = workload + " " + std::to_string(seed) + " ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

// --- serving --------------------------------------------------------------

std::string ChecksumHex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, checksum);
  return buf;
}

/// One trained, published and warmed-up model behind a running server.
struct Deployment {
  Inputs in;
  std::unique_ptr<gbx::GbKnnClassifier> model;
  std::vector<int> expected;
  std::vector<std::string> frames;
  std::shared_ptr<gbx::ModelRegistry> registry;
  std::unique_ptr<gbx::Server> server;
  std::unique_ptr<LoadClient> client;  // declared last: closes first
  double setup_s = 0.0;
  double model_fit_ms = 0.0;
  double load_ms = 0.0;
  double publish_ms = 0.0;
  PhaseStats warmup;
};

std::unique_ptr<Deployment> Deploy(const WorkloadSpec& w, const Options& o,
                                   std::string* error) {
  auto d = std::make_unique<Deployment>();
  const double t_begin = NowS();
  d->in = MakeInputs(w, o.seed);

  double t = NowS();
  d->model = std::make_unique<gbx::GbKnnClassifier>(GbgConfig(o.seed), 1);
  d->model->Fit(d->in.train, nullptr);
  d->model_fit_ms = (NowS() - t) * 1e3;

  const std::string path =
      o.workdir + "/model-" + std::to_string(::getpid()) + ".gbxm";
  const gbx::Status saved = gbx::SaveModel(*d->model, path);
  if (!saved.ok()) {
    *error = "save: " + saved.ToString();
    return nullptr;
  }
  t = NowS();
  gbx::StatusOr<gbx::LoadedModel> loaded = gbx::LoadModel(path);
  d->load_ms = (NowS() - t) * 1e3;
  std::remove(path.c_str());
  if (!loaded.ok()) {
    *error = "load: " + loaded.status().ToString();
    return nullptr;
  }
  const std::string checksum = ChecksumHex(loaded->checksum);

  d->expected = d->model->PredictBatch(d->in.queries);
  const int dims = d->in.queries.cols();
  d->frames.reserve(d->in.queries.rows());
  for (int r = 0; r < d->in.queries.rows(); ++r) {
    d->frames.push_back(gbx::EncodeFrame(
        gbx::FormatPredictPayload("", d->in.queries.Row(r), dims)));
  }

  d->registry = std::make_shared<gbx::ModelRegistry>();
  t = NowS();
  auto published = d->registry->Publish("default", std::move(loaded).value());
  d->publish_ms = (NowS() - t) * 1e3;
  if (!published.ok()) {
    *error = "publish: " + published.status().ToString();
    return nullptr;
  }
  gbx::ServerOptions so;
  so.num_workers = kWorkers;
  d->server = std::make_unique<gbx::Server>(d->registry, so);
  const gbx::Status started = d->server->Start();
  if (!started.ok()) {
    *error = "server: " + started.ToString();
    return nullptr;
  }
  ServingTarget target;
  target.port = d->server->port();
  target.frames = &d->frames;
  target.expected = &d->expected;
  target.checksum_hex = checksum;
  d->client = std::make_unique<LoadClient>(target, kPredictConns);
  if (!d->client->Connect(error)) return nullptr;
  d->warmup = d->client->Run("warmup", w.low_qps, 0.3, kHealthRate, 0, 1.0);
  d->setup_s = NowS() - t_begin;
  return d;
}

/// One phase's windows as a single record: counts summed, samples
/// concatenated.
PhaseStats Pool(const std::vector<PhaseStats>& windows) {
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  PhaseStats all = windows.front();
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const PhaseStats& p = windows[i];
    all.seconds += p.seconds;
    all.cpu_s += p.cpu_s;
    all.sent += p.sent;
    all.ok += p.ok;
    all.failed += p.failed;
    all.shed += p.shed;
    all.wrong += p.wrong;
    all.admin_sent += p.admin_sent;
    all.admin_ok += p.admin_ok;
    all.admin_failed += p.admin_failed;
    append(&all.latency_ms, p.latency_ms);
    append(&all.late_ms, p.late_ms);
    append(&all.health_ms, p.health_ms);
  }
  return all;
}

std::string PhaseJson(const PhaseStats& p) {
  std::ostringstream o;
  o << "{\"phase\":" << JsonQuote(p.name)
    << ",\"rate_qps\":" << JsonNumber(p.rate_qps)
    << ",\"seconds\":" << JsonNumber(p.seconds) << ",\"sent\":" << p.sent
    << ",\"ok\":" << p.ok << ",\"failed\":" << p.failed
    << ",\"shed\":" << p.shed << ",\"wrong\":" << p.wrong
    << ",\"p50_ms\":" << JsonNumber(Quantile(p.latency_ms, 0.5))
    << ",\"p99_ms\":" << JsonNumber(Quantile(p.latency_ms, 0.99))
    << ",\"late_p99_ms\":" << JsonNumber(Quantile(p.late_ms, 0.99))
    << ",\"late_max_ms\":" << JsonNumber(Quantile(p.late_ms, 1.0))
    << ",\"admin_sent\":" << p.admin_sent << ",\"admin_ok\":" << p.admin_ok
    << ",\"admin_failed\":" << p.admin_failed << "}";
  return o.str();
}

// --- run metadata ---------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double ProcessCpuS() {
  rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return std::nan("");
}

std::string MetricsJson(const MetricSet& m) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const Metric& x : m.items()) {
    o << (first ? "" : ", ") << JsonQuote(x.name) << ": {\"value\": "
      << JsonNumber(x.value) << ", \"unit\": " << JsonQuote(x.unit) << "}";
    first = false;
  }
  return o.str() + "}";
}

/// Repeated RunGbabs fits, cycling over several draws of the generator so
/// that no single draw's cost sets fit_s. Fits run in blocks between the
/// serving windows, so they sample the whole run rather than one stretch
/// of it.
class FitPhase {
 public:
  FitPhase(const WorkloadSpec& w, const Options& o,
           const gbx::Dataset& served_train)
      : seed_(o.seed), first_(w.fit_draws), fit_ms_(w.fit_draws) {
    data_.push_back(served_train);
    for (int k = 1; k < w.fit_draws; ++k) {
      data_.push_back(MakeInputs(w, DrawSeed(o.seed, k)).train);
    }
  }

  /// Fits until `budget_s` is spent; at least one fit.
  void RunFor(double budget_s) {
    const double begin = NowS();
    do {
      FitNext();
    } while (NowS() - begin < budget_s);
  }

  /// Fits each draw that has not been fitted yet.
  void CoverAllDraws() {
    while (fits_ < static_cast<std::int64_t>(data_.size())) FitNext();
  }

  /// One fit: the median over all fits. Draws are cycled, so each one
  /// contributes as many fits as the others, give or take one.
  double FitMs() const {
    std::vector<double> all;
    for (const auto& v : fit_ms_) all.insert(all.end(), v.begin(), v.end());
    return Median(std::move(all));
  }
  double ServedFitMs() const { return Median(fit_ms_[0]); }
  const std::vector<std::vector<double>>& fit_ms() const { return fit_ms_; }
  const FitSummary& served() const { return *first_[0]; }
  std::int64_t fits() const { return fits_; }
  std::int64_t disagreements() const { return disagreements_; }

 private:
  void FitNext() {
    const int k =
        static_cast<int>(fits_ % static_cast<std::int64_t>(data_.size()));
    const gbx::GbabsConfig config{GbgConfig(DrawSeed(seed_, k)), 0};
    const double t = NowS();
    const gbx::GbabsResult r = gbx::RunGbabs(data_[k], config);
    fit_ms_[k].push_back((NowS() - t) * 1e3);
    ++fits_;
    const FitSummary s = Summarize(r);
    if (!first_[k]) {
      first_[k] = s;
    } else if (!(*first_[k] == s)) {
      ++disagreements_;
    }
  }

  std::uint64_t seed_;
  std::vector<gbx::Dataset> data_;  // draw 0 is the served model's data
  std::vector<std::optional<FitSummary>> first_;
  std::vector<std::vector<double>> fit_ms_;  // per draw
  std::int64_t fits_ = 0;
  std::int64_t disagreements_ = 0;  // repeated fits of one draw that differ
};

struct ServingPhase {
  std::vector<PhaseStats> lows, highs, sats;
  SeriesSnapshot low_series, high_series, sat_series;
};

/// Rounds of a fit block, a low-rate window, a high-rate window and a
/// closed-loop saturation window, so every phase samples the whole run.
/// Each window also records the process CPU time it used and the
/// program's own serving series over it.
ServingPhase RunRounds(const WorkloadSpec& w, const Options& o,
                       LoadClient& client, FitPhase* fits) {
  ServingPhase sv;
  auto window = [](auto&& run, SeriesSnapshot* series,
                   std::vector<PhaseStats>* out) {
    const SeriesSnapshot before = SnapshotServingSeries();
    const double cpu0 = ProcessCpuS();
    out->push_back(run());
    out->back().cpu_s = ProcessCpuS() - cpu0;
    AccumulateWindow(before, SnapshotServingSeries(), series);
  };
  const int rounds =
      std::max(3, static_cast<int>(std::lround(kRoundShare * o.seconds)));
  for (int k = 0; k < rounds; ++k) {
    fits->RunFor(kFitShare * o.seconds / rounds);
    window([&] {
      return client.Run("low", w.low_qps, kLowWindowS, kHealthRate,
                        kScrapeRate, 2.0);
    }, &sv.low_series, &sv.lows);
    window([&] {
      return client.Run("high", w.high_qps, kHighWindowS, kHealthRate,
                        kScrapeRate, 2.0);
    }, &sv.high_series, &sv.highs);
    window([&] {
      return client.RunClosed("sat", kSatWindowS, kSatInFlight, 2.0);
    }, &sv.sat_series, &sv.sats);
  }
  fits->CoverAllDraws();
  return sv;
}

/// Median over windows of f(window).
template <typename F>
double WindowMedian(const std::vector<PhaseStats>& windows, F&& f) {
  std::vector<double> v;
  for (const PhaseStats& p : windows) v.push_back(f(p));
  return Median(std::move(v));
}

double CpuUsPerReq(const PhaseStats& p) {
  return p.ok > 0 ? p.cpu_s * 1e6 / p.ok : std::nan("");
}

int Run(const Options& o) {
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (o.workload == s.name) w = &s;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "gbxbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  if (o.print_golden) {
    const gbx::GbabsConfig config{GbgConfig(o.seed), 0};
    const FitSummary s =
        Summarize(gbx::RunGbabs(MakeInputs(*w, o.seed).train, config));
    std::printf("%s\n", GoldenLine(w->name, o.seed, s).c_str());
    return 0;
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  auto problem = [&](const std::string& what) {
    problems.push_back(what);
    correct = false;
  };

  // Set up several times; the last deployment serves the measured phases.
  std::vector<double> setup_s, model_fit_ms, load_ms, publish_ms;
  std::unique_ptr<Deployment> dep;
  for (int r = 0; r < kSetups; ++r) {
    dep.reset();
    std::string error;
    dep = Deploy(*w, o, &error);
    if (dep == nullptr) {
      std::fprintf(stderr, "gbxbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(dep->setup_s);
    model_fit_ms.push_back(dep->model_fit_ms);
    load_ms.push_back(dep->load_ms);
    publish_ms.push_back(dep->publish_ms);
    attempted += dep->warmup.sent + dep->warmup.admin_sent;
    failed += dep->warmup.failed + dep->warmup.admin_failed;
    if (dep->warmup.wrong > 0) problem("warm-up replies disagree with the model");
  }

  // Fits and serving rounds, interleaved.
  FitPhase fits(*w, o, dep->in.train);
  LoadClient& client = *dep->client;
  const ServingPhase sv = RunRounds(*w, o, client, &fits);

  // Training, checked against the served model and the recorded golden.
  attempted += fits.fits();
  failed += fits.disagreements();
  if (fits.disagreements() > 0) problem("repeated RunGbabs fits disagree");
  if (fits.served().balls != dep->model->num_balls()) {
    problem("GB-kNN and RunGbabs granulations differ in ball count");
  }
  const std::string fit_line = GoldenLine(w->name, o.seed, fits.served());
  std::string golden = "absent";
  if (!o.golden.empty()) {
    const std::string want = FindGolden(o.golden, w->name, o.seed);
    if (!want.empty()) {
      golden = want == fit_line ? "match" : "mismatch";
      if (want != fit_line) {
        ++failed;
        problem("fit differs from golden: got '" + fit_line + "', want '" +
                want + "'");
      }
    }
  }

  const PhaseStats low = Pool(sv.lows), high = Pool(sv.highs),
                   sat = Pool(sv.sats);
  for (const PhaseStats* p : {&low, &high, &sat}) {
    attempted += p->sent + p->admin_sent;
    failed += p->failed + p->admin_failed;
    if (p->wrong > 0) problem(p->name + " replies disagree with the model");
  }
  bool valid = true;
  std::string invalid_reason;
  for (const PhaseStats* p : {&low, &high}) {
    if (Quantile(p->late_ms, 0.99) > kMaxLateP99Ms) {
      valid = false;
      invalid_reason = "generator fell behind in phase " + p->name;
    }
  }

  MetricSet e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("fit_s", fits.FitMs() / 1e3, "s");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Add("cpu_us_per_req.low", WindowMedian(sv.lows, CpuUsPerReq), "us");
  e2e.Add("cpu_us_per_req.high", WindowMedian(sv.highs, CpuUsPerReq), "us");

  // Client-side latency and throughput: reported with the layers, since
  // on a shared machine they spread more than any useful bound.
  auto quantile_of = [](double q) {
    return [q](const PhaseStats& p) { return Quantile(p.latency_ms, q); };
  };
  MetricSet client_view;
  client_view.Add("serve.client.p50_ms.low", WindowMedian(sv.lows, quantile_of(0.5)), "ms");
  client_view.Add("serve.client.p99_ms.low", WindowMedian(sv.lows, quantile_of(0.99)), "ms");
  client_view.Add("serve.client.p50_ms.high", WindowMedian(sv.highs, quantile_of(0.5)), "ms");
  client_view.Add("serve.client.p99_ms.high", WindowMedian(sv.highs, quantile_of(0.99)), "ms");
  client_view.Add("serve.client.sat_qps",
                  WindowMedian(sv.sats, [](const PhaseStats& p) {
                    return p.achieved_qps();
                  }),
                  "1/s");
  client_view.Add("serve.client.admin_p50_ms", Quantile(high.health_ms, 0.5), "ms");
  client_view.Add("serve.client.admin_p99_ms", Quantile(high.health_ms, 0.99), "ms");

  MetricSet layers;
  if (o.trace) {
    for (const Metric& m : client_view.items()) layers.Add(m.name, m.value, m.unit);
    double traced_fit_ms = std::nan("");
    CoreInputs ci;
    ci.train = &dep->in.train;
    ci.gbg = GbgConfig(o.seed);
    ci.fit_ms = fits.ServedFitMs();
    bool layers_ok = true;
    MeasureTraining(ci, &layers, &traced_fit_ms, &layers_ok);
    const FitSummary& f = fits.served();
    layers.Add("core.rd_gbg.balls", f.balls, "count");
    layers.Add("core.rd_gbg.iterations", f.iterations, "count");
    layers.Add("core.rd_gbg.noise", f.noise, "count");
    layers.Add("core.rd_gbg.orphans", f.orphans, "count");
    layers.Add("core.rd_gbg.nonsingleton_frac",
               static_cast<double>(f.nonsingleton) / f.balls, "ratio");
    layers.Add("core.gbabs.sampled", f.sampled, "count");
    layers.Add("core.gbabs.borderline_balls", f.borderline, "count");
    MeasureModel(*dep->model, dep->in.queries, &layers, &layers_ok);
    if (!layers_ok) problem("exact index strategies disagree");

    const std::pair<const PhaseStats*, const SeriesSnapshot*> phases[] = {
        {&low, &sv.low_series}, {&high, &sv.high_series}, {&sat, &sv.sat_series}};
    for (const auto& [p, series] : phases) {
      const std::string sfx = "." + p->name;
      AddServingWindow(*series, p->name, &layers);
      layers.Add("serve.unattributed_ms" + sfx,
                 Mean(p->latency_ms) -
                     SeriesMean(*series, "gbx_server_request_ms"),
                 "ms");
      layers.Add("serve.client.sent" + sfx, static_cast<double>(p->sent),
                 "count");
      layers.Add("serve.client.ok" + sfx, static_cast<double>(p->ok), "count");
      layers.Add("serve.client.failed" + sfx, static_cast<double>(p->failed),
                 "count");
    }
    layers.Add("serve.protocol.ping_rtt_us", client.AdminRoundTripUs("!ping", 200),
               "us");
    layers.Add("serve.model_io.load_ms", Median(load_ms), "ms");
    layers.Add("serve.registry.publish_ms", Median(publish_ms), "ms");
    layers.Add("serve.setup.model_fit_ms", Median(model_fit_ms), "ms");
    std::vector<double> late = low.late_ms;
    late.insert(late.end(), high.late_ms.begin(), high.late_ms.end());
    layers.Add("bench.generator_late_ms.p99", Quantile(late, 0.99), "ms");
    layers.Add("bench.generator_late_ms.max", Quantile(late, 1.0), "ms");
    layers.Add("bench.trace_overhead",
               traced_fit_ms / fits.ServedFitMs(), "ratio");
  }

  // Metadata line, then the result line.
  char host[256] = {0};
  ::gethostname(host, sizeof(host) - 1);
  const char* threads_env = std::getenv("GBX_THREADS");
  std::ostringstream meta;
  meta << "{\"gbxbench\":{\"workload\":" << JsonQuote(w->name)
       << ",\"seed\":" << o.seed << ",\"seconds\":" << JsonNumber(o.seconds)
       << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"host\":" << JsonQuote(host)
       << ",\"cpu\":" << JsonQuote(CpuModel())
       << ",\"simd\":" << JsonQuote(gbx::simd::ActiveName())
       << ",\"gbx_threads\":" << JsonQuote(threads_env ? threads_env : "")
       << ",\"pool_threads\":" << gbx::DefaultNumThreads()
       << ",\"workers\":" << kWorkers << ",\"connections\":" << kPredictConns
       << ",\"commit\":" << JsonQuote(o.commit) << ",\"valid\":"
       << (valid ? "true" : "false")
       << ",\"invalid_reason\":" << JsonQuote(invalid_reason)
       << ",\"golden\":" << JsonQuote(golden)
       << ",\"fit\":" << JsonQuote(fit_line)
       << ",\"fits\":" << fits.fits()
       << ",\"fit_draw_ms\":[";
  for (std::size_t k = 0; k < fits.fit_ms().size(); ++k) {
    meta << (k ? "," : "") << JsonNumber(Median(fits.fit_ms()[k]));
  }
  meta << "]"
       << ",\"rounds\":" << sv.lows.size() << ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    meta << (i ? "," : "") << JsonQuote(problems[i]);
  }
  meta << "],\"phases\":[" << PhaseJson(low) << "," << PhaseJson(high) << ","
       << PhaseJson(sat) << "],\"end_to_end\":" << MetricsJson(e2e)
       << ",\"client\":" << MetricsJson(client_view) << "}}";
  std::printf("%s\n", meta.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(o.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace gbxbench

int main(int argc, char** argv) {
  gbxbench::Options o;
  if (!gbxbench::ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: gbxbench --workload magic|usps|banana --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] [--golden FILE] "
                 "[--commit ID]\n"
                 "       gbxbench --workload NAME --seed N --print-golden\n");
    return 2;
  }
  return gbxbench::Run(o);
}
