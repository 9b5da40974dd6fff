// gbx_loadgen: load generator and socket client for the gbx_serve
// network front-end (serve/server.h, gbx-wire v1).
//
// Three modes against a running server (--host/--port):
//
//   --ping                  liveness probe: "!ping" -> "ok pong".
//                           Exit 0 iff the server answered; CI polls
//                           this while the server boots.
//
//   --queries FILE          replay: send every line of FILE (the
//     [--out FILE]          gbx_serve predict stdin format) as predict
//     [--model NAME]        frames — pipelined, answered in order — and
//                           write one label per line. Diffing --out
//                           against `gbx_serve predict` output proves
//                           socket serving is bit-identical to the
//                           stdin path (the CI socket smoke).
//
//   --qps N --seconds X     open-loop sustained load: requests are
//     [--connections C]     scheduled at fixed arrival times i/qps
//     [--model NAME]        across C connections and latency is
//     [--deadline-ms T]     measured FROM THE SCHEDULED TIME (so queue
//     [--retries R]         delay when the server falls behind is
//     [--backoff-ms B]      charged to it — no coordinated omission).
//                           Reports achieved QPS and p50/p99/max, plus
//                           a failure breakdown: ok / shed (UNAVAILABLE
//                           overload replies) / deadline_expired
//                           (DEADLINE_EXCEEDED) / transport / other.
//                           --deadline-ms attaches "timeout_ms=T" to
//                           every request; --retries R retries shed,
//                           deadline-expired, and transport failures up
//                           to R times with full-jitter exponential
//                           backoff (base --backoff-ms, default 5) —
//                           the well-behaved-client loop the server's
//                           overload replies are designed for.
//
//   --admin CMD             one-shot admin client: send CMD (e.g.
//                           "!stat default", "!metrics prom",
//                           "!trace slow") as a single frame and print
//                           the reply payload verbatim. The clean way
//                           to scrape a server — gbx-wire frames are
//                           length-prefixed, so raw nc needs hand-built
//                           length bytes.
//
// --print-server-metrics (open-loop mode) scrapes "!metrics json"
// before and after the run and prints the server-side delta — counter
// increments and histogram count/sum growth attributable to this load —
// next to the client-observed latency report.
//
// --self replaces --host/--port with an in-process server over a
// freshly trained GB-kNN model — the self-contained form the BENCH
// ctest smoke runs so serving regressions are measured like index
// regressions.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/paper_suite.h"
#include "data/split.h"
#include "ml/gb_knn.h"
#include "serve/model_io.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

#include "cli_flags.h"

namespace {

using namespace gbx;

struct Args {
  std::string host = "127.0.0.1";
  int port = -1;
  std::string model;  // "" = the server's default route
  std::string queries;
  std::string out;
  double qps = 1000.0;
  double seconds = 2.0;
  int connections = 4;
  double deadline_ms = 0.0;  // 0 = no per-request deadline
  int retries = 0;           // retry budget for shed/deadline/transport
  double backoff_ms = 5.0;   // full-jitter exponential backoff base
  bool ping = false;
  bool self = false;
  std::string admin;  // one-shot admin command, e.g. "!metrics prom"
  bool print_server_metrics = false;
  std::string dataset = "S5";
  int max_samples = 400;
  std::uint64_t seed = 7;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gbx_loadgen (--port N [--host H] | --self) --ping\n"
      "  gbx_loadgen (--port N [--host H] | --self) --queries FILE\n"
      "              [--out FILE] [--model NAME]\n"
      "  gbx_loadgen (--port N [--host H] | --self) --qps N --seconds X\n"
      "              [--connections C] [--model NAME] [--deadline-ms T]\n"
      "              [--retries R] [--backoff-ms B]\n"
      "              [--print-server-metrics]\n"
      "  gbx_loadgen (--port N [--host H] | --self) --admin CMD\n"
      "self-mode:    [--dataset S1..S13] [--max-samples N] [--seed N]\n");
  return 2;
}

bool Reject(const std::string& message) {
  return cli::Reject("gbx_loadgen", message);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--ping") {
      args->ping = true;
      continue;
    }
    if (flag == "--self") {
      args->self = true;
      continue;
    }
    if (flag == "--print-server-metrics") {
      args->print_server_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return Reject(flag + " needs a value");
    const char* v = argv[++i];
    // Numeric flags: each must parse as one whole token.
    int* int_flag = flag == "--port"          ? &args->port
                    : flag == "--connections" ? &args->connections
                    : flag == "--retries"     ? &args->retries
                    : flag == "--max-samples" ? &args->max_samples
                                              : nullptr;
    double* double_flag = flag == "--qps"           ? &args->qps
                          : flag == "--seconds"     ? &args->seconds
                          : flag == "--deadline-ms" ? &args->deadline_ms
                          : flag == "--backoff-ms"  ? &args->backoff_ms
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
    } else if (flag == "--host") {
      args->host = v;
    } else if (flag == "--model") {
      args->model = v;
    } else if (flag == "--queries") {
      args->queries = v;
    } else if (flag == "--out") {
      args->out = v;
    } else if (flag == "--dataset") {
      args->dataset = v;
    } else if (flag == "--admin") {
      args->admin = v;
    } else {
      return Reject("unknown flag " + flag);
    }
    // Range checks before any socket work: a port htons would truncate,
    // a run with no connection to send on, or an arrival schedule i/qps
    // that is not a time.
    if (flag == "--port" && (args->port < 0 || args->port > 65535)) {
      return Reject(std::string("--port must be in [0, 65535], got ") + v);
    }
    if (flag == "--connections" && args->connections < 1) {
      return Reject(std::string("--connections must be >= 1, got ") + v);
    }
    if (flag == "--qps" && args->qps <= 0.0) {
      return Reject(std::string("--qps must be > 0, got ") + v);
    }
  }
  return true;
}

/// "ok LABEL ..." -> LABEL; anything else is an error.
StatusOr<int> LabelFromReply(const std::string& payload) {
  int label = 0;
  if (std::sscanf(payload.c_str(), "ok %d", &label) != 1) {
    return Status::Internal("server answered: " + payload);
  }
  return label;
}

/// One round trip on a fresh connection: CMD frame out, reply frame in.
StatusOr<std::string> FetchAdminReply(const Args& args,
                                      const std::string& cmd) {
  StatusOr<int> fd = ConnectTcp(args.host, args.port, 2.0);
  if (!fd.ok()) return fd.status();
  const Status sent = SendFrame(*fd, cmd);
  const StatusOr<std::string> reply =
      sent.ok() ? RecvFrame(*fd) : StatusOr<std::string>(sent);
  ::close(*fd);
  return reply;
}

int RunAdmin(const Args& args) {
  const StatusOr<std::string> reply = FetchAdminReply(args, args.admin);
  if (!reply.ok()) {
    std::fprintf(stderr, "gbx_loadgen: %s\n",
                 reply.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", reply->c_str());
  return reply->rfind("error ", 0) == 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// --print-server-metrics: scrape "!metrics json" and diff two scrapes.
//
// The parser below reads ONLY the exposition common/metrics.h emits
// (flat {"metrics":[...]} array, known field order, no nesting beyond
// the labels object) — it is a scraper for our own stable wire format,
// not a general JSON parser.

struct MetricSample {
  std::string type;       // counter | gauge | histogram
  double value = 0.0;     // counter/gauge
  long long count = 0;    // histogram observations
  double sum = 0.0;       // histogram total (ms for latency families)
};

/// Extracts `"field":<number>` from one metric object.
bool JsonNumber(const std::string& obj, const std::string& field,
                double* out) {
  const std::string key = "\"" + field + "\":";
  const std::size_t at = obj.find(key);
  if (at == std::string::npos) return false;
  *out = std::atof(obj.c_str() + at + key.size());
  return true;
}

/// Extracts `"field":"<text>"` (no unescaping: our names/labels/types
/// never contain escapes).
bool JsonString(const std::string& obj, const std::string& field,
                std::string* out) {
  const std::string key = "\"" + field + "\":\"";
  const std::size_t at = obj.find(key);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + key.size();
  const std::size_t end = obj.find('"', begin);
  if (end == std::string::npos) return false;
  *out = obj.substr(begin, end - begin);
  return true;
}

/// "ok metrics json\n{...}" -> map from "name{labels}" to sample.
std::map<std::string, MetricSample> ParseMetricsJson(
    const std::string& reply) {
  std::map<std::string, MetricSample> out;
  const std::size_t body_at = reply.find('\n');
  if (body_at == std::string::npos) return out;
  const std::string body = reply.substr(body_at + 1);
  // Walk the top-level array, slicing one {...} object per metric by
  // brace depth (label objects nest one deep).
  std::size_t i = body.find('[');
  if (i == std::string::npos) return out;
  while (++i < body.size()) {
    if (body[i] != '{') continue;
    int depth = 0;
    std::size_t j = i;
    for (; j < body.size(); ++j) {
      if (body[j] == '{') ++depth;
      if (body[j] == '}' && --depth == 0) break;
    }
    if (j >= body.size()) break;
    const std::string obj = body.substr(i, j - i + 1);
    i = j;
    std::string name, type;
    if (!JsonString(obj, "name", &name) || !JsonString(obj, "type", &type)) {
      continue;
    }
    std::string key = name;
    const std::size_t labels_at = obj.find("\"labels\":{");
    if (labels_at != std::string::npos) {
      const std::size_t lbegin = labels_at + 9;
      const std::size_t lend = obj.find('}', lbegin);
      if (lend != std::string::npos) {
        key += obj.substr(lbegin, lend - lbegin + 1);
      }
    }
    MetricSample s;
    s.type = type;
    if (type == "histogram") {
      double count = 0.0;
      JsonNumber(obj, "count", &count);
      s.count = static_cast<long long>(count);
      JsonNumber(obj, "sum", &s.sum);
    } else {
      JsonNumber(obj, "value", &s.value);
    }
    out[key] = s;
  }
  return out;
}

/// Prints what the server observed between the two scrapes: counter
/// increments and histogram growth, skipping series the run never
/// touched (and gauges, which are instantaneous, not cumulative).
void PrintMetricsDelta(const std::map<std::string, MetricSample>& before,
                       const std::map<std::string, MetricSample>& after) {
  std::printf("server metrics delta (!metrics json, before -> after):\n");
  int printed = 0;
  for (const auto& [key, b] : after) {
    const auto prev = before.find(key);
    const MetricSample zero;
    const MetricSample& a = prev == before.end() ? zero : prev->second;
    if (b.type == "counter") {
      const long long delta =
          static_cast<long long>(b.value) - static_cast<long long>(a.value);
      if (delta == 0) continue;
      std::printf("  %-46s +%lld\n", key.c_str(), delta);
      ++printed;
    } else if (b.type == "histogram") {
      const long long dcount = b.count - a.count;
      if (dcount == 0) continue;
      const double dsum = b.sum - a.sum;
      std::printf("  %-46s +%lld obs, mean %.3f\n", key.c_str(), dcount,
                  dcount > 0 ? dsum / dcount : 0.0);
      ++printed;
    }
  }
  if (printed == 0) {
    std::printf("  (no deltas — metrics sites compiled out?)\n");
  }
}

int RunPing(const Args& args) {
  StatusOr<int> fd = ConnectTcp(args.host, args.port, 2.0);
  if (!fd.ok()) return 1;
  const Status sent = SendFrame(*fd, "!ping");
  const StatusOr<std::string> reply =
      sent.ok() ? RecvFrame(*fd) : StatusOr<std::string>(sent);
  ::close(*fd);
  if (!reply.ok() || *reply != "ok pong") return 1;
  std::printf("pong\n");
  return 0;
}

int RunReplay(const Args& args) {
  std::ifstream in(args.queries);
  if (!in) {
    std::fprintf(stderr, "gbx_loadgen: cannot read %s\n",
                 args.queries.c_str());
    return 1;
  }
  std::vector<std::string> payloads;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    payloads.push_back(args.model.empty() ? line
                                          : "@" + args.model + " " + line);
  }

  StatusOr<int> fd = ConnectTcp(args.host, args.port);
  if (!fd.ok()) {
    std::fprintf(stderr, "gbx_loadgen: %s\n", fd.status().ToString().c_str());
    return 1;
  }
  std::FILE* out = stdout;
  if (!args.out.empty()) {
    out = std::fopen(args.out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "gbx_loadgen: cannot write %s\n",
                   args.out.c_str());
      ::close(*fd);
      return 1;
    }
  }

  // Pipeline with a bounded window: responses come back in request
  // order (a server guarantee), so a sliding window keeps both
  // directions busy without deadlocking on full kernel buffers.
  constexpr std::size_t kWindow = 128;
  std::size_t sent = 0, received = 0;
  int rc = 0;
  while (received < payloads.size()) {
    while (sent < payloads.size() && sent - received < kWindow) {
      const Status st = SendFrame(*fd, payloads[sent]);
      if (!st.ok()) {
        std::fprintf(stderr, "gbx_loadgen: %s\n", st.ToString().c_str());
        rc = 1;
        break;
      }
      ++sent;
    }
    if (rc != 0) break;
    const StatusOr<std::string> reply = RecvFrame(*fd);
    const StatusOr<int> label =
        reply.ok() ? LabelFromReply(*reply) : StatusOr<int>(reply.status());
    if (!label.ok()) {
      std::fprintf(stderr, "gbx_loadgen: query %zu: %s\n", received,
                   label.status().ToString().c_str());
      rc = 1;
      break;
    }
    std::fprintf(out, "%d\n", *label);
    ++received;
  }
  ::close(*fd);
  if (out != stdout) std::fclose(out);
  if (rc == 0) {
    std::fprintf(stderr, "replayed %zu queries\n", received);
  }
  return rc;
}

int RunOpenLoop(const Args& args) {
  const int total =
      std::max(1, static_cast<int>(args.qps * args.seconds));
  const int connections = args.connections;

  // In-distribution queries need the model's feature ranges: ask !list
  // for dims... simpler and always right: pull one model's metadata via
  // !stat? The wire protocol doesn't ship ranges, so synthesize queries
  // from the unit cube and rely on the scaler (GB-kNN scales queries
  // into the training range; arbitrary finite values are valid input).
  // Dims come from the "!list" reply for the routed model.
  StatusOr<int> probe = ConnectTcp(args.host, args.port);
  if (!probe.ok()) {
    std::fprintf(stderr, "gbx_loadgen: %s\n",
                 probe.status().ToString().c_str());
    return 1;
  }
  int dims = -1;
  {
    const std::string want =
        args.model.empty() ? std::string("default") : args.model;
    if (!SendFrame(*probe, "!list").ok()) {
      ::close(*probe);
      return 1;
    }
    const StatusOr<std::string> reply = RecvFrame(*probe);
    ::close(*probe);
    if (!reply.ok()) {
      std::fprintf(stderr, "gbx_loadgen: !list: %s\n",
                   reply.status().ToString().c_str());
      return 1;
    }
    std::istringstream in(*reply);
    std::string tok;
    while (in >> tok) {
      if (tok == want) {
        std::string v, fnv, cs, kind, dimskw;
        if (in >> v >> fnv >> cs >> kind >> dimskw >> dims) break;
      }
    }
    if (dims <= 0) {
      std::fprintf(stderr, "gbx_loadgen: no model '%s' on the server\n",
                   want.c_str());
      return 1;
    }
  }

  std::vector<int> fds(connections, -1);
  for (int c = 0; c < connections; ++c) {
    StatusOr<int> fd = ConnectTcp(args.host, args.port);
    if (!fd.ok()) {
      std::fprintf(stderr, "gbx_loadgen: %s\n",
                   fd.status().ToString().c_str());
      for (int f : fds) {
        if (f >= 0) ::close(f);
      }
      return 1;
    }
    fds[c] = *fd;
  }

  std::printf("loadgen: target %.0f qps x %.1f s on %d connections "
              "(%d requests, %d features, model '%s')\n",
              args.qps, args.seconds, connections, total, dims,
              args.model.empty() ? "default" : args.model.c_str());

  std::map<std::string, MetricSample> metrics_before;
  if (args.print_server_metrics) {
    const StatusOr<std::string> scrape =
        FetchAdminReply(args, "!metrics json");
    if (scrape.ok()) metrics_before = ParseMetricsJson(*scrape);
  }

  std::atomic<int> next_index{0};
  // Failure taxonomy mirroring the server's typed replies: retryable
  // classes (shed, deadline, transport) are distinguished from
  // everything else so an overload experiment can tell "the server
  // protected itself" apart from "something broke".
  std::atomic<long long> shed{0}, deadline_expired{0}, transport{0},
      other_errors{0}, retries_spent{0};
  std::vector<std::vector<double>> latencies_ms(connections);
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Pcg32 rng(args.seed + 100 + static_cast<std::uint64_t>(c));
      std::vector<double> q(dims);
      latencies_ms[c].reserve(total / connections + 1);
      for (;;) {
        const int i = next_index.fetch_add(1);
        if (i >= total) return;
        // Open loop: request i is due at start + i/qps regardless of
        // how long earlier requests took.
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(i / args.qps));
        std::this_thread::sleep_until(due);
        for (int j = 0; j < dims; ++j) q[j] = rng.NextDouble();
        const std::string payload = FormatPredictPayload(
            args.model, q.data(), dims, args.deadline_ms);
        for (int attempt = 0;; ++attempt) {
          if (attempt > 0) {
            retries_spent.fetch_add(1);
            // Full-jitter exponential backoff: uniform in
            // [0, base * 2^(attempt-1)] — retries from many clients
            // decorrelate instead of re-stampeding the server.
            const double cap_ms =
                args.backoff_ms *
                static_cast<double>(1 << std::min(attempt - 1, 10));
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(cap_ms *
                                                          rng.NextDouble()));
          }
          const bool budget_left = attempt < args.retries;
          const Status sent = SendFrame(fds[c], payload);
          const StatusOr<std::string> reply =
              sent.ok() ? RecvFrame(fds[c]) : StatusOr<std::string>(sent);
          if (!reply.ok()) {
            // Transport failure poisons the connection; reconnect
            // before any retry.
            ::close(fds[c]);
            fds[c] = -1;
            const StatusOr<int> fresh = ConnectTcp(args.host, args.port);
            if (fresh.ok()) fds[c] = *fresh;
            if (budget_left && fds[c] >= 0) continue;
            transport.fetch_add(1);
            if (fds[c] < 0) return;  // server unreachable: stop this lane
            break;
          }
          const std::string& r = *reply;
          if (r.rfind("ok ", 0) == 0) {
            // Latency from the *scheduled* time: queueing delay counts.
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - due)
                    .count();
            latencies_ms[c].push_back(ms);
            break;
          }
          if (r.rfind("error UNAVAILABLE", 0) == 0) {
            if (budget_left) continue;
            shed.fetch_add(1);
            break;
          }
          if (r.rfind("error DEADLINE_EXCEEDED", 0) == 0) {
            if (budget_left) continue;
            deadline_expired.fetch_add(1);
            break;
          }
          other_errors.fetch_add(1);  // non-retryable (bad query etc.)
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (int f : fds) ::close(f);

  std::vector<double> all;
  for (const auto& v : latencies_ms) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const long long ok_count = static_cast<long long>(all.size());
  const auto pct = [&](double q) {
    if (all.empty()) return 0.0;
    const std::size_t rank = static_cast<std::size_t>(q * (all.size() - 1));
    return all[rank];
  };
  const long long failures = shed.load() + deadline_expired.load() +
                             transport.load() + other_errors.load();
  std::printf("completed %lld requests in %.3f s (achieved %.0f qps)\n",
              ok_count, elapsed_s,
              elapsed_s > 0 ? ok_count / elapsed_s : 0.0);
  std::printf("outcomes: ok %lld, shed %lld, "
              "deadline_expired %lld, transport %lld, other %lld "
              "(retries %lld)\n",
              ok_count, shed.load(), deadline_expired.load(),
              transport.load(), other_errors.load(), retries_spent.load());
  std::printf("latency (from scheduled send): p50 %.3f ms, p99 %.3f ms, "
              "max %.3f ms\n",
              pct(0.50), pct(0.99), all.empty() ? 0.0 : all.back());
  if (args.print_server_metrics) {
    const StatusOr<std::string> scrape =
        FetchAdminReply(args, "!metrics json");
    if (scrape.ok()) {
      PrintMetricsDelta(metrics_before, ParseMetricsJson(*scrape));
    } else {
      std::fprintf(stderr, "gbx_loadgen: !metrics scrape failed: %s\n",
                   scrape.status().ToString().c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}

/// --self: train a small GB-kNN, publish it as "default" (and under the
/// dataset id), serve it in-process, and point the requested mode at it.
int RunSelfHosted(Args args) {
  const Dataset ds = MakePaperDataset(args.dataset, args.max_samples, 9);
  Pcg32 split_rng(11);
  const TrainTestSplitResult split = TrainTestSplit(ds, 0.3, &split_rng);
  RdGbgConfig gbg;
  gbg.seed = args.seed;
  GbKnnClassifier model(gbg, 3);
  Pcg32 fit_rng(5);
  model.Fit(split.train, &fit_rng);

  StatusOr<LoadedModel> loaded = ModelFromString(ModelToString(model));
  if (!loaded.ok()) {
    std::fprintf(stderr, "gbx_loadgen --self: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto registry = std::make_shared<ModelRegistry>();
  const auto published =
      registry->Publish("default", std::move(loaded).value());
  if (!published.ok()) {
    std::fprintf(stderr, "gbx_loadgen --self: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  Server server(registry);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "gbx_loadgen --self: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("self-hosted %s model on 127.0.0.1:%d (%d balls)\n",
              args.dataset.c_str(), server.port(), model.num_balls());
  args.host = "127.0.0.1";
  args.port = server.port();
  const int rc = args.ping                ? RunPing(args)
                 : !args.admin.empty()    ? RunAdmin(args)
                 : !args.queries.empty()  ? RunReplay(args)
                                          : RunOpenLoop(args);
  server.Stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.self) return RunSelfHosted(args);
  if (args.port < 0) {
    std::fprintf(stderr, "gbx_loadgen: --port (or --self) is required\n");
    return Usage();
  }
  if (args.ping) return RunPing(args);
  if (!args.admin.empty()) return RunAdmin(args);
  if (!args.queries.empty()) return RunReplay(args);
  return RunOpenLoop(args);
}
