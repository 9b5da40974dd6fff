// gbx_serve: the serving front-end over the train-once / serve-forever
// boundary (src/serve/). Three subcommands exercise the full
// save -> load -> serve path offline:
//
//   train    fit GB-kNN (or kNN) on a dataset and write a gbx-model
//            artifact:
//              gbx_serve train --dataset S5 --out model.gbx
//              gbx_serve train --csv data.csv --model knn --k 5 --out m.gbx
//            --dump-queries/--dump-predictions write the holdout features
//            and the fitted model's labels for them, so a fresh process
//            can verify the artifact reproduces them bit-for-bit.
//
//   predict  load an artifact and serve a streaming line protocol:
//            one query per stdin line (comma- or space-separated
//            features), one predicted label per stdout line:
//              gbx_serve predict --model-file model.gbx < queries.csv
//            With --csv FILE, scores a labeled CSV in one batch and
//            reports accuracy to stderr instead.
//
//   bench    sustained-load self-test: N caller threads fire random
//            in-distribution queries through the batching engine for a
//            few seconds, then the engine stats (requests, batches,
//            p50/p99 latency) and the run's throughput are printed:
//              gbx_serve bench --model-file model.gbx --callers 8
//
//   serve    network front-end (serve/server.h): bind a TCP port and
//            speak gbx-wire v1 (length-prefixed frames reusing the
//            predict line format), serving one or more named models
//            from a hot-swappable registry:
//              gbx_serve serve --port 7411 --model-file model.gbx
//              gbx_serve serve --port 7411 --register a=a.gbx
//                              --register b=b.gbx
//            Prints "ready" once listening; SIGINT/SIGTERM shut down
//            cleanly (in-flight requests drain first). Drive it with
//            gbx_loadgen.
//
//   info     print an artifact's metadata line.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "data/csv.h"
#include "data/paper_suite.h"
#include "index/index_strategy.h"
#include "data/split.h"
#include "ml/metrics.h"
#include "serve/engine.h"
#include "serve/model_io.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

#include "cli_flags.h"

namespace {

using namespace gbx;

struct Args {
  std::string model = "gb-knn";
  std::string out;
  std::string model_file;
  std::string csv;
  std::string dataset = "S5";
  std::string dump_queries;
  std::string dump_predictions;
  int max_samples = 1200;
  int k = -1;  // -1 = per-model default (1 for gb-knn, 5 for knn)
  int rho = 5;  // RD-GBG density tolerance, >= 2
  std::uint64_t seed = 7;
  double holdout = 0.3;
  int batch = 64;
  double delay_ms = 0.2;
  double seconds = 2.0;
  int callers = 8;
  bool stats = false;
  // serve subcommand.
  int port = -1;
  std::string host = "127.0.0.1";
  int workers = 0;  // <= 0: GBX_THREADS / hardware
  std::vector<std::string> registers;  // repeated --register name=path
  double idle_timeout_ms = 0.0;
  int max_queue = -1;     // < 0: ServerOptions default; 0 disables
  int max_inflight = -1;  // per-connection cap; same convention
  int metrics_dump_sec = 0;  // > 0: periodic Prometheus dump to stderr
  double slow_trace_ms = -1.0;  // < 0: ServerOptions default
  // Runtime-only ball-center scan strategy for GB-kNN (never persisted
  // in the artifact): auto | flat | tree | balltree.
  IndexStrategy index_strategy = IndexStrategy::kAuto;
  // > 0 arms the worker watchdog (stall deadline in ms).
  double worker_stall_ms = 0.0;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gbx_serve train   --out FILE [--model gb-knn|knn] [--dataset S1..S13]\n"
      "                    [--csv FILE] [--max-samples N] [--k N (>= 1)]\n"
      "                    [--rho N (>= 2)] [--seed N] [--holdout F]\n"
      "                    [--dump-queries FILE] [--dump-predictions FILE]\n"
      "  gbx_serve predict --model-file FILE [--csv FILE] [--batch N]\n"
      "                    [--delay-ms X] [--stats]   (queries on stdin)\n"
      "  gbx_serve bench   --model-file FILE [--seconds X] [--callers N]\n"
      "                    [--batch N] [--delay-ms X] [--seed N]\n"
      "  gbx_serve serve   --port N [--host H] [--model-file FILE]\n"
      "                    [--register NAME=PATH]... [--workers N]\n"
      "                    [--batch N] [--delay-ms X]\n"
      "                    [--idle-timeout-ms X] [--max-queue N]\n"
      "                    [--max-inflight N]   (overload shed caps; 0 = off)\n"
      "                    [--metrics-dump-sec N]  (periodic Prometheus dump\n"
      "                    to stderr) [--slow-trace-ms X]  (span-tree log\n"
      "                    threshold; 0 = off)\n"
      "                    [--worker-stall-ms X]  (watchdog deadline;\n"
      "                    0 = off)\n"
      "  gbx_serve info    --model-file FILE\n"
      "common: --index-strategy auto|flat|tree|balltree\n"
      "        (GB-kNN center scan; runtime-only, artifacts never\n"
      "        persist it)\n");
  return 2;
}

bool Reject(const std::string& message) {
  return cli::Reject("gbx_serve", message);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--stats") {
      args->stats = true;
      continue;
    }
    if (i + 1 >= argc) return Reject(flag + " needs a value");
    const char* v = argv[++i];
    // Numeric flags: each must parse as one whole token.
    int* int_flag = flag == "--max-samples"        ? &args->max_samples
                    : flag == "--k"                ? &args->k
                    : flag == "--rho"              ? &args->rho
                    : flag == "--batch"            ? &args->batch
                    : flag == "--callers"          ? &args->callers
                    : flag == "--port"             ? &args->port
                    : flag == "--workers"          ? &args->workers
                    : flag == "--max-queue"        ? &args->max_queue
                    : flag == "--max-inflight"     ? &args->max_inflight
                    : flag == "--metrics-dump-sec" ? &args->metrics_dump_sec
                                                   : nullptr;
    double* double_flag =
        flag == "--holdout"           ? &args->holdout
        : flag == "--delay-ms"        ? &args->delay_ms
        : flag == "--seconds"         ? &args->seconds
        : flag == "--idle-timeout-ms" ? &args->idle_timeout_ms
        : flag == "--slow-trace-ms"   ? &args->slow_trace_ms
        : flag == "--worker-stall-ms" ? &args->worker_stall_ms
                                      : nullptr;
    if (int_flag != nullptr) {
      if (!cli::ParseNumber(v, int_flag)) {
        return Reject(flag + " wants an integer, got '" + v + "'");
      }
    } else if (double_flag != nullptr) {
      if (!cli::ParseNumber(v, double_flag)) {
        return Reject(flag + " wants a number, got '" + v + "'");
      }
    } else if (flag == "--seed") {
      if (!cli::ParseNumber(v, &args->seed)) {
        return Reject(flag + " wants an integer, got '" + v + "'");
      }
    } else if (flag == "--model") {
      args->model = v;
    } else if (flag == "--out") {
      args->out = v;
    } else if (flag == "--model-file") {
      args->model_file = v;
    } else if (flag == "--csv") {
      args->csv = v;
    } else if (flag == "--dataset") {
      args->dataset = v;
    } else if (flag == "--dump-queries") {
      args->dump_queries = v;
    } else if (flag == "--dump-predictions") {
      args->dump_predictions = v;
    } else if (flag == "--host") {
      args->host = v;
    } else if (flag == "--register") {
      args->registers.emplace_back(v);
    } else if (flag == "--index-strategy") {
      if (!ParseIndexStrategy(v, &args->index_strategy)) {
        return Reject(std::string("--index-strategy wants "
                                  "auto|flat|tree|balltree, got '") +
                      v + "'");
      }
    } else {
      return Reject("unknown flag " + flag);
    }
    // Range checks that would otherwise abort deep inside training or
    // truncate silently.
    if (flag == "--k" && args->k < 1) {
      return Reject(std::string("--k must be >= 1, got ") + v);
    }
    if (flag == "--rho" && args->rho < 2) {
      return Reject(std::string("--rho must be >= 2, got ") + v);
    }
    if (flag == "--port" && (args->port < 0 || args->port > 65535)) {
      return Reject(std::string("--port must be in [0, 65535], got ") + v);
    }
  }
  return true;
}

StatusOr<Dataset> LoadTrainingData(const Args& args) {
  if (!args.csv.empty()) return LoadCsv(args.csv);
  return MakePaperDataset(args.dataset, args.max_samples, args.seed);
}

int RunTrain(const Args& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "gbx_serve train: --out is required\n");
    return 2;
  }
  StatusOr<Dataset> data = LoadTrainingData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "gbx_serve train: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  Pcg32 split_rng(args.seed);
  const TrainTestSplitResult split =
      TrainTestSplit(*data, args.holdout, &split_rng);
  std::printf("train: %d samples, holdout: %d samples, %d features, "
              "%d classes\n",
              split.train.size(), split.test.size(), data->num_features(),
              data->num_classes());

  std::unique_ptr<Classifier> model;
  Pcg32 fit_rng(args.seed + 1);
  if (args.model == "gb-knn") {
    RdGbgConfig gbg;
    gbg.density_tolerance = args.rho;
    gbg.seed = args.seed;
    gbg.index_strategy = args.index_strategy;
    auto gbknn = std::make_unique<GbKnnClassifier>(
        gbg, args.k > 0 ? args.k : 1);
    gbknn->Fit(split.train, &fit_rng);
    std::printf("fitted GB-kNN: %d balls over %d training samples\n",
                gbknn->num_balls(), split.train.size());
    model = std::move(gbknn);
  } else if (args.model == "knn") {
    auto knn = std::make_unique<KnnClassifier>(args.k > 0 ? args.k : 5);
    knn->Fit(split.train, &fit_rng);
    std::printf("fitted kNN: k=%d over %d training samples\n", knn->k(),
                split.train.size());
    model = std::move(knn);
  } else {
    std::fprintf(stderr, "gbx_serve train: unknown --model '%s'\n",
                 args.model.c_str());
    return 2;
  }

  const std::vector<int> holdout_pred = model->PredictBatch(split.test.x());
  std::printf("holdout accuracy: %.4f\n",
              Accuracy(split.test.y(), holdout_pred));

  const Status saved = SaveModel(*model, args.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "gbx_serve train: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved gbx-model artifact: %s\n", args.out.c_str());

  if (!args.dump_queries.empty()) {
    std::FILE* f = std::fopen(args.dump_queries.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "gbx_serve train: cannot write %s\n",
                   args.dump_queries.c_str());
      return 1;
    }
    for (int i = 0; i < split.test.size(); ++i) {
      const std::string line = FormatPredictPayload(
          "", split.test.row(i), split.test.num_features());
      std::fprintf(f, "%s\n", line.c_str());
    }
    std::fclose(f);
  }
  if (!args.dump_predictions.empty()) {
    std::FILE* f = std::fopen(args.dump_predictions.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "gbx_serve train: cannot write %s\n",
                   args.dump_predictions.c_str());
      return 1;
    }
    for (int label : holdout_pred) std::fprintf(f, "%d\n", label);
    std::fclose(f);
  }
  return 0;
}

long long CounterValue(const char* name) {
  return static_cast<long long>(
      metrics::MetricsRegistry::Default().GetCounter(name)->Value());
}

// Engine counts as the registry's gbx_engine_* series hold them: totals
// over every engine in this process (all zero in a -DGBX_METRICS=OFF
// build). Call it once an engine exists, so the families are registered.
// Returns the request count.
long long PrintEngineStats(std::FILE* to) {
  const long long requests = CounterValue("gbx_engine_requests_total");
  const long long batches = CounterValue("gbx_engine_batches_total");
  const metrics::HistogramSnapshot latency =
      metrics::MetricsRegistry::Default()
          .GetHistogram("gbx_engine_request_ms")
          ->Snapshot();
  std::fprintf(to,
               "engine stats: %lld requests in %lld batches "
               "(%.1f mean batch)\n"
               "latency: p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
               requests, batches,
               batches > 0 ? static_cast<double>(requests) / batches : 0.0,
               latency.Quantile(0.50), latency.Quantile(0.99), latency.max);
  return requests;
}

StatusOr<LoadedModel> LoadModelAt(const std::string& path, const Args& args) {
  StatusOr<LoadedModel> model = LoadModel(path);
  if (model.ok()) {
    // The scan strategy is serving-process state, not artifact state:
    // apply this process's choice to the restored model.
    if (auto* gbknn =
            dynamic_cast<GbKnnClassifier*>(model->classifier.get())) {
      gbknn->set_index_strategy(args.index_strategy);
    }
  }
  return model;
}

StatusOr<LoadedModel> LoadModelArg(const Args& args, const char* cmd) {
  if (args.model_file.empty()) {
    return Status::InvalidArgument(std::string("gbx_serve ") + cmd +
                                   ": --model-file is required");
  }
  return LoadModelAt(args.model_file, args);
}

int RunPredict(const Args& args) {
  StatusOr<LoadedModel> model = LoadModelArg(args, "predict");
  if (!model.ok()) {
    std::fprintf(stderr, "gbx_serve predict: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  InferenceEngineOptions opts;
  opts.max_batch_size = args.batch;
  // The stdin line protocol has exactly one synchronous caller, so no
  // follower can ever join a batch — waiting out the coalescing window
  // would only add idle latency per line.
  opts.max_batch_delay_ms = args.csv.empty() ? 0.0 : args.delay_ms;
  InferenceEngine engine(std::move(model).value(), opts);

  if (!args.csv.empty()) {
    const StatusOr<Dataset> data = LoadCsv(args.csv);
    if (!data.ok()) {
      std::fprintf(stderr, "gbx_serve predict: %s\n",
                   data.status().ToString().c_str());
      return 1;
    }
    const StatusOr<std::vector<int>> labels = engine.PredictBatch(data->x());
    if (!labels.ok()) {
      std::fprintf(stderr, "gbx_serve predict: %s\n",
                   labels.status().ToString().c_str());
      return 1;
    }
    for (int label : *labels) std::printf("%d\n", label);
    std::fprintf(stderr, "accuracy vs CSV labels: %.4f\n",
                 Accuracy(data->y(), *labels));
    if (args.stats) PrintEngineStats(stderr);
    return 0;
  }

  // Streaming line protocol: one query per line, one label per line,
  // each line a gbx-wire predict payload without the @model prefix or a
  // timeout_ms deadline (both only mean something to a server).
  std::string line;
  std::string model_name;
  double timeout_ms = 0.0;
  std::vector<double> query;
  int lineno = 0;
  while (std::getline(std::cin, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const Status parsed =
        ParsePredictPayload(line, &model_name, &timeout_ms, &query);
    const char* why = !parsed.ok() ? parsed.message().c_str()
                      : !model_name.empty()
                          ? "@model routing needs the serve subcommand"
                      : timeout_ms > 0.0
                          ? "timeout_ms deadlines need the serve subcommand"
                          : nullptr;
    if (why != nullptr) {
      std::fprintf(stderr, "gbx_serve predict: unparseable line %d: %s\n",
                   lineno, why);
      return 1;
    }
    const StatusOr<int> label = engine.Predict(query);
    if (!label.ok()) {
      std::fprintf(stderr, "gbx_serve predict: line %d: %s\n", lineno,
                   label.status().ToString().c_str());
      return 1;
    }
    std::printf("%d\n", *label);
  }
  if (args.stats) PrintEngineStats(stderr);
  return 0;
}

int RunBench(const Args& args) {
  StatusOr<LoadedModel> model = LoadModelArg(args, "bench");
  if (!model.ok()) {
    std::fprintf(stderr, "gbx_serve bench: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  InferenceEngineOptions opts;
  opts.max_batch_size = args.batch;
  opts.max_batch_delay_ms = args.delay_ms;
  InferenceEngine engine(std::move(model).value(), opts);

  const int dims = engine.dims();
  std::vector<double> lo(dims, 0.0), hi(dims, 1.0);
  if (static_cast<int>(engine.model().feature_mins.size()) == dims) {
    lo = engine.model().feature_mins;
    hi = engine.model().feature_maxs;
  }
  std::printf("bench: %s model, %d features, %d classes, %d callers, "
              "%.1f s, batch %d / %.2f ms window\n",
              engine.model().kind.c_str(), dims, engine.num_classes(),
              args.callers, args.seconds, opts.max_batch_size,
              opts.max_batch_delay_ms);

  std::atomic<long long> errors{0};
  const Stopwatch wall;
  std::vector<std::thread> callers;
  callers.reserve(args.callers);
  for (int t = 0; t < args.callers; ++t) {
    callers.emplace_back([&, t] {
      Pcg32 rng(args.seed + 1000 + t);
      std::vector<double> q(dims);
      Stopwatch watch;
      while (watch.ElapsedSeconds() < args.seconds) {
        for (int j = 0; j < dims; ++j) {
          q[j] = lo[j] + (hi[j] - lo[j]) * rng.NextDouble();
        }
        if (!engine.Predict(q).ok()) ++errors;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  const double elapsed_s = wall.ElapsedSeconds();
  if (errors.load() != 0) {
    std::fprintf(stderr, "gbx_serve bench: %lld failed predictions\n",
                 errors.load());
    return 1;
  }
  const long long requests = PrintEngineStats(stdout);
  std::printf("throughput: %.0f predictions/s\n", requests / elapsed_s);
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void HandleStopSignal(int) { g_serve_stop.store(true); }

int RunServe(const Args& args) {
  if (args.port < 0) {
    std::fprintf(stderr, "gbx_serve serve: --port is required\n");
    return 2;
  }
  InferenceEngineOptions engine_opts;
  engine_opts.max_batch_size = args.batch;
  engine_opts.max_batch_delay_ms = args.delay_ms;
  auto registry = std::make_shared<ModelRegistry>(engine_opts);

  // --model-file publishes as the default route; --register NAME=PATH
  // adds named tenants.
  std::vector<std::pair<std::string, std::string>> to_load;
  if (!args.model_file.empty()) to_load.emplace_back("default", args.model_file);
  for (const std::string& spec : args.registers) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      std::fprintf(stderr,
                   "gbx_serve serve: --register wants NAME=PATH, got '%s'\n",
                   spec.c_str());
      return 2;
    }
    to_load.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  }
  if (to_load.empty()) {
    std::fprintf(stderr,
                 "gbx_serve serve: need --model-file and/or --register\n");
    return 2;
  }
  for (const auto& [name, path] : to_load) {
    StatusOr<LoadedModel> model = LoadModelAt(path, args);
    if (!model.ok()) {
      std::fprintf(stderr, "gbx_serve serve: %s: %s\n", path.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }
    const auto published = registry->Publish(name, std::move(model).value());
    if (!published.ok()) {
      std::fprintf(stderr, "gbx_serve serve: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
    const LoadedModel& lm = (*published)->engine->model();
    std::printf("registered %s v%d (%s, %d features, %d classes)\n",
                name.c_str(), (*published)->version, lm.kind.c_str(), lm.dims,
                lm.num_classes);
  }

  ServerOptions sopts;
  sopts.host = args.host;
  sopts.port = args.port;
  sopts.num_workers = args.workers;
  sopts.idle_timeout_ms = args.idle_timeout_ms;
  if (args.max_queue >= 0) {
    sopts.max_queue_depth = static_cast<std::size_t>(args.max_queue);
  }
  if (args.max_inflight >= 0) {
    sopts.max_inflight_per_conn =
        static_cast<std::uint64_t>(args.max_inflight);
  }
  if (args.slow_trace_ms >= 0.0) sopts.slow_trace_ms = args.slow_trace_ms;
  sopts.worker_stall_ms = args.worker_stall_ms;
  Server server(registry, sopts);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "gbx_serve serve: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("serving %d model(s) on %s:%d\n", registry->size(),
              args.host.c_str(), server.port());
  std::printf("ready\n");
  std::fflush(stdout);

  g_serve_stop.store(false);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // --metrics-dump-sec N: a poor operator's scraper — dump the full
  // Prometheus exposition to stderr every N seconds, so a plain
  // `gbx_serve serve ... 2>metrics.log` run leaves a time series behind
  // without any client wired to "!metrics".
  Stopwatch dump_watch;
  int dumps = 0;
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (args.metrics_dump_sec > 0 &&
        dump_watch.ElapsedSeconds() >=
            static_cast<double>(args.metrics_dump_sec) * (dumps + 1)) {
      ++dumps;
      const std::string text =
          metrics::MetricsRegistry::Default().PrometheusText();
      std::fprintf(stderr, "# gbx metrics dump %d (t=%.1fs)\n%s",
                   dumps, dump_watch.ElapsedSeconds(), text.c_str());
      std::fflush(stderr);
    }
  }
  std::printf("draining...\n");
  server.Stop();
  std::printf("server stats: %lld connections (%lld closed), "
              "%lld frames in, %lld frames out, %lld protocol errors\n",
              CounterValue("gbx_server_connections_accepted_total"),
              CounterValue("gbx_server_connections_closed_total"),
              CounterValue("gbx_server_frames_received_total"),
              CounterValue("gbx_server_frames_sent_total"),
              CounterValue("gbx_server_protocol_errors_total"));
  std::printf("overload stats: %lld shed, %lld worker stalls\n",
              CounterValue("gbx_server_requests_shed_total"),
              CounterValue("gbx_server_worker_stalls_total"));
  for (const auto& m : registry->List()) {
    std::printf("model %s v%d\n", m->name.c_str(), m->version);
  }
  PrintEngineStats(stdout);
  return 0;
}

int RunInfo(const Args& args) {
  const StatusOr<LoadedModel> model = LoadModelArg(args, "info");
  if (!model.ok()) {
    std::fprintf(stderr, "gbx_serve info: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("gbx-model v1: classifier %s, %d features, %d classes\n%s\n",
              model->kind.c_str(), model->dims, model->num_classes,
              model->config.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "train") return RunTrain(args);
  if (cmd == "predict") return RunPredict(args);
  if (cmd == "bench") return RunBench(args);
  if (cmd == "serve") return RunServe(args);
  if (cmd == "info") return RunInfo(args);
  return Usage();
}
