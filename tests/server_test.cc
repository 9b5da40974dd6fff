// End-to-end socket battery for the network serving front-end
// (serve/server.h): predictions over TCP are bit-identical to the
// in-process InferenceEngine path on every paper-suite dataset,
// concurrent clients all get correct answers, "@model" routing hits the
// right registry entry, pipelined responses arrive in request order,
// and the admin protocol works. Client/caller counts honor GBX_THREADS
// via the shared servetest fixture.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "data/paper_suite.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace gbx {
namespace {

using servetest::CallerThreads;
using servetest::MakeGbKnnBundle;
using servetest::ModelBundle;
using servetest::ParsePredictReply;
using servetest::PredictReply;
using servetest::RegistryDelta;
using servetest::SmallBatchOptions;
using servetest::TestClient;

class ServerTest : public servetest::ServeTestBase {
 protected:
  /// Starts a server on an ephemeral port over `registry`.
  static std::unique_ptr<Server> StartServer(
      std::shared_ptr<ModelRegistry> registry, ServerOptions opts = {}) {
    auto server = std::make_unique<Server>(std::move(registry), opts);
    const Status started = server->Start();
    GBX_CHECK_MSG(started.ok(), "test server must start");
    return server;
  }

  /// Registry with one bundle published under `name`.
  static std::shared_ptr<ModelRegistry> OneModelRegistry(
      const ModelBundle& bundle, const std::string& name = "default") {
    auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
    GBX_CHECK(registry->Publish(name, servetest::LoadBundle(bundle)).ok());
    return registry;
  }
};

// The headline acceptance criterion: for every paper-suite dataset,
// labels served over the socket are bit-identical to the fitted model's
// PredictBatch, and every response carries that artifact's checksum.
// All 13 models are published into ONE server; each dataset's queries
// route via "@Sx".
TEST_F(ServerTest, SocketPredictionsBitIdenticalAcrossPaperSuite) {
  std::vector<ModelBundle> bundles;
  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  for (const PaperDatasetSpec& spec : PaperDatasetSpecs()) {
    bundles.push_back(MakeGbKnnBundle(spec.id));
    ASSERT_TRUE(
        registry->Publish(spec.id, servetest::LoadBundle(bundles.back())).ok());
  }
  const std::unique_ptr<Server> server = StartServer(registry);
  const RegistryDelta delta;

  for (std::size_t b = 0; b < bundles.size(); ++b) {
    const ModelBundle& bundle = bundles[b];
    const std::string& id = PaperDatasetSpecs()[b].id;
    const Dataset& test = bundle.split.test;
    TestClient client(server->port());
    // Pipeline every query, then read every response: the per-connection
    // ordering guarantee makes position i the answer to query i.
    for (int i = 0; i < test.size(); ++i) {
      ASSERT_TRUE(
          client
              .Send(FormatPredictPayload(id, test.row(i), test.num_features()))
              .ok());
    }
    for (int i = 0; i < test.size(); ++i) {
      const StatusOr<std::string> payload = client.Recv();
      ASSERT_TRUE(payload.ok()) << id << ": " << payload.status().ToString();
      const StatusOr<PredictReply> reply = ParsePredictReply(*payload);
      ASSERT_TRUE(reply.ok()) << id << ": " << reply.status().ToString();
      EXPECT_EQ(reply->label, bundle.expected[i]) << id << " query " << i;
      EXPECT_EQ(reply->checksum, bundle.checksum) << id << " query " << i;
    }
  }

  if (metrics::kCompiledIn) {
    EXPECT_EQ(delta("gbx_server_protocol_errors_total"), 0);
    EXPECT_EQ(delta("gbx_server_frames_received_total"),
              delta("gbx_server_frames_sent_total"));
  }
}

TEST_F(ServerTest, ConcurrentClientsGetBitIdenticalAnswers) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const std::unique_ptr<Server> server =
      StartServer(OneModelRegistry(bundle));
  const Dataset& test = bundle.split.test;
  const RegistryDelta delta;

  const int clients = CallerThreads();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      TestClient client(server->port());
      for (int i = t; i < test.size(); i += clients) {
        const StatusOr<std::string> payload = client.Call(
            FormatPredictPayload("", test.row(i), test.num_features()));
        ASSERT_TRUE(payload.ok()) << payload.status().ToString();
        const StatusOr<PredictReply> reply = ParsePredictReply(*payload);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        EXPECT_EQ(reply->label, bundle.expected[i]) << "query " << i;
        EXPECT_EQ(reply->checksum, bundle.checksum);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  if (metrics::kCompiledIn) {
    EXPECT_EQ(delta("gbx_server_connections_accepted_total"), clients);
    EXPECT_EQ(delta("gbx_server_frames_received_total"), test.size());
    EXPECT_EQ(delta("gbx_server_frames_sent_total"), test.size());
    EXPECT_EQ(delta("gbx_server_protocol_errors_total"), 0);
  }
}

TEST_F(ServerTest, RoutesPerModelAndReportsUnknown) {
  // Two models with different dimensionality, so a cross-routed query
  // could not silently succeed.
  const ModelBundle alpha = MakeGbKnnBundle("S1");
  const ModelBundle beta = MakeGbKnnBundle("S2");
  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(registry->Publish("alpha", servetest::LoadBundle(alpha)).ok());
  ASSERT_TRUE(registry->Publish("beta", servetest::LoadBundle(beta)).ok());
  ServerOptions opts;
  opts.default_model = "alpha";
  const std::unique_ptr<Server> server = StartServer(registry, opts);

  TestClient client(server->port());
  const Dataset& atest = alpha.split.test;
  const Dataset& btest = beta.split.test;

  // Unprefixed -> default model.
  StatusOr<std::string> payload = client.Call(
      FormatPredictPayload("", atest.row(0), atest.num_features()));
  ASSERT_TRUE(payload.ok());
  StatusOr<PredictReply> reply = ParsePredictReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->label, alpha.expected[0]);
  EXPECT_EQ(reply->checksum, alpha.checksum);

  // "@beta" -> the other entry, tagged with the other checksum.
  payload = client.Call(
      FormatPredictPayload("beta", btest.row(0), btest.num_features()));
  ASSERT_TRUE(payload.ok());
  reply = ParsePredictReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->label, beta.expected[0]);
  EXPECT_EQ(reply->checksum, beta.checksum);

  // Unknown model: structured NOT_FOUND, connection stays open.
  payload = client.Call(
      FormatPredictPayload("ghost", atest.row(0), atest.num_features()));
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("error NOT_FOUND", 0), 0) << *payload;

  payload = client.Call(
      FormatPredictPayload("", atest.row(1), atest.num_features()));
  ASSERT_TRUE(payload.ok());
  reply = ParsePredictReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->label, alpha.expected[1]);
}

TEST_F(ServerTest, PipelinedResponsesArriveInRequestOrder) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const std::unique_ptr<Server> server =
      StartServer(OneModelRegistry(bundle));
  const Dataset& test = bundle.split.test;
  const int n = std::min(64, test.size());

  TestClient client(server->port());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        client.Send(FormatPredictPayload("", test.row(i), test.num_features()))
            .ok());
  }
  for (int i = 0; i < n; ++i) {
    const StatusOr<std::string> payload = client.Recv();
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    const StatusOr<PredictReply> reply = ParsePredictReply(*payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    // Out-of-order worker completions must be reordered per connection:
    // response i answers query i, always.
    EXPECT_EQ(reply->label, bundle.expected[i]) << "position " << i;
  }
}

TEST_F(ServerTest, AdminProtocolAnswersPingListAndStat) {
  const ModelBundle alpha = MakeGbKnnBundle("S1");
  const ModelBundle beta = MakeGbKnnBundle("S2");
  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(registry->Publish("alpha", servetest::LoadBundle(alpha)).ok());
  ASSERT_TRUE(registry->Publish("beta", servetest::LoadBundle(beta)).ok());
  const std::unique_ptr<Server> server = StartServer(registry);

  TestClient client(server->port());
  StatusOr<std::string> payload = client.Call("!ping");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "ok pong");

  payload = client.Call("!list");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("ok models 2", 0), 0) << *payload;
  EXPECT_NE(payload->find("alpha v1"), std::string::npos) << *payload;
  EXPECT_NE(payload->find("beta v1"), std::string::npos) << *payload;

  payload = client.Call("!stat alpha");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("ok stats alpha v1", 0), 0) << *payload;

  payload = client.Call("!stat ghost");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("error NOT_FOUND", 0), 0) << *payload;

  payload = client.Call("!frobnicate");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("error INVALID_ARGUMENT", 0), 0) << *payload;
}

// "!stat" is a view of the metrics registry: after a burst, with no
// traffic in between, every count it prints is the in-process value of
// the series "!metrics" exposes, and its derived fields are computed
// from them. The counts are process-wide, so both models report the
// same totals.
TEST_F(ServerTest, StatCountsAreTheRegistrySeries) {
  if (!metrics::kCompiledIn) {
    GTEST_SKIP() << "metrics sites compiled out (GBX_METRICS=OFF)";
  }
  const ModelBundle alpha = MakeGbKnnBundle("S1");
  const ModelBundle beta = MakeGbKnnBundle("S2");
  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(registry->Publish("alpha", servetest::LoadBundle(alpha)).ok());
  ASSERT_TRUE(registry->Publish("beta", servetest::LoadBundle(beta)).ok());
  ServerOptions opts;
  opts.default_model = "alpha";
  opts.max_inflight_per_conn = 8;  // the pipelined burst may shed
  const std::unique_ptr<Server> server = StartServer(registry, opts);
  const RegistryDelta delta;

  TestClient client(server->port());
  int sent = 0;
  for (const auto& [name, bundle] :
       {std::pair<const char*, const ModelBundle*>{"alpha", &alpha},
        {"beta", &beta}}) {
    const Dataset& test = bundle->split.test;
    for (int i = 0; i < test.size(); ++i, ++sent) {
      ASSERT_TRUE(client
                      .Send(FormatPredictPayload(name, test.row(i),
                                                 test.num_features()))
                      .ok());
    }
  }
  for (int i = 0; i < sent; ++i) ASSERT_TRUE(client.Recv().ok());
  // Every request not shed was predicted once.
  EXPECT_EQ(delta("gbx_engine_requests_total"),
            sent - delta("gbx_server_requests_shed_total"));

  const std::map<std::string, std::string> series = {
      {"requests", "gbx_engine_requests_total"},
      {"batches", "gbx_engine_batches_total"},
      {"shed", "gbx_server_requests_shed_total"},
      {"deadline_expired", "gbx_server_deadlines_expired_total"},
      {"queue_depth", "gbx_server_queue_depth"},
      {"queue_peak", "gbx_server_queue_peak"},
      {"worker_stalls", "gbx_server_worker_stalls_total"},
  };
  for (const char* model : {"alpha", "beta"}) {
    const StatusOr<std::string> stat =
        client.Call(std::string("!stat ") + model);
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->rfind(std::string("ok stats ") + model + " v1 ", 0), 0)
        << *stat;
    const std::string scrape = servetest::RegistryDelta::Scrape();
    const metrics::HistogramSnapshot latency =
        metrics::MetricsRegistry::Default()
            .GetHistogram("gbx_engine_request_ms")
            ->Snapshot();
    const std::map<std::string, std::string> fields =
        servetest::StatFields(*stat);
    for (const auto& [field, name] : series) {
      ASSERT_EQ(fields.count(field), 1u) << field << " missing: " << *stat;
      const std::optional<double> value = servetest::ScrapedValue(scrape, name);
      ASSERT_TRUE(value.has_value()) << "no series " << name;
      EXPECT_EQ(std::stod(fields.at(field)), *value)
          << field << " vs " << name << ": " << *stat;
    }
    const double requests = std::stod(fields.at("requests"));
    // The derived fields, formatted as "!stat" formats them.
    auto text = [](double v) {
      std::ostringstream out;
      out << v;
      return out.str();
    };
    EXPECT_EQ(fields.at("mean_batch"),
              text(requests / std::stod(fields.at("batches"))));
    EXPECT_EQ(fields.at("p50_ms"), text(latency.Quantile(0.50)));
    EXPECT_EQ(fields.at("p99_ms"), text(latency.Quantile(0.99)));
    // No other field is a count: a new one must join `series` above.
    for (const auto& [field, value] : fields) {
      if (series.count(field) == 0) {
        EXPECT_TRUE(field == "mean_batch" || field == "p50_ms" ||
                    field == "p99_ms" || field == "simd" ||
                    field == "strategy")
            << "unmapped !stat field " << field << " " << value;
      }
    }
  }
}

TEST_F(ServerTest, HealthProbeReportsReadyAndUnready) {
  // A server with a published model and healthy workers is ready.
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const std::unique_ptr<Server> server =
      StartServer(OneModelRegistry(bundle));
  TestClient client(server->port());
  StatusOr<std::string> payload = client.Call("!health");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("ok health ready", 0), 0) << *payload;
  EXPECT_NE(payload->find(" models 1 "), std::string::npos) << *payload;
  EXPECT_NE(payload->find(" stalled 0 "), std::string::npos) << *payload;
  // The queue field "queue D/LINE" is the last one.
  const std::size_t queue = payload->rfind(" queue ");
  ASSERT_NE(queue, std::string::npos) << *payload;
  EXPECT_EQ(payload->substr(payload->find('/', queue)),
            "/" + std::to_string(ServerOptions{}.max_queue_depth))
      << *payload;

  // An empty registry is unready ("no-models") — the load balancer must
  // not route predict traffic at a server that cannot answer it — but
  // the probe itself still answers.
  const std::unique_ptr<Server> empty =
      StartServer(std::make_shared<ModelRegistry>(SmallBatchOptions()));
  TestClient probe(empty->port());
  payload = probe.Call("!health");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("ok health unready", 0), 0) << *payload;
  EXPECT_NE(payload->find("no-models"), std::string::npos) << *payload;
}

TEST_F(ServerTest, StartRejectsNegativeWorkerStallTyped) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  ServerOptions opts;
  opts.worker_stall_ms = -1.0;
  Server server(OneModelRegistry(bundle), opts);
  EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Observability battery: "!metrics" and "!trace" over the wire.

/// Extracts the value of the first Prometheus series whose line starts
/// with `series` (full "name{labels}" or bare name). -1 when absent.
double PromValue(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(series, 0) == 0 && line.size() > series.size() &&
        line[series.size()] == ' ') {
      return std::atof(line.c_str() + series.size() + 1);
    }
  }
  return -1.0;
}

/// Sum of `name` span durations in a formatted trace payload; lines
/// look like "  queue_wait @0.000ms +0.514ms".
double SpanDurationMs(const std::string& payload, const std::string& name) {
  double total = 0.0;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string span, at, plus;
    if (!(fields >> span >> at >> plus)) continue;
    if (span != name || plus.size() < 4 || plus[0] != '+') continue;
    total += std::atof(plus.c_str() + 1);
  }
  return total;
}

TEST_F(ServerTest, MetricsAdminScrapesPromAndJson) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const std::unique_ptr<Server> server =
      StartServer(OneModelRegistry(bundle));
  const Dataset& test = bundle.split.test;

  TestClient client(server->port());
  const int n = std::min(16, test.size());
  for (int i = 0; i < n; ++i) {
    const StatusOr<std::string> payload = client.Call(
        FormatPredictPayload("", test.row(i), test.num_features()));
    ASSERT_TRUE(payload.ok());
  }

  // Bare "!metrics" defaults to prom; an unknown format is a usage
  // error that leaves the connection open.
  StatusOr<std::string> payload = client.Call("!metrics bogus");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("error INVALID_ARGUMENT", 0), 0) << *payload;

  payload = client.Call("!metrics");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("ok metrics prom\n", 0), 0) << *payload;

  payload = client.Call("!metrics prom");
  ASSERT_TRUE(payload.ok());
  ASSERT_EQ(payload->rfind("ok metrics prom\n", 0), 0) << *payload;
  const std::string prom = payload->substr(payload->find('\n') + 1);

  payload = client.Call("!metrics json");
  ASSERT_TRUE(payload.ok());
  ASSERT_EQ(payload->rfind("ok metrics json\n", 0), 0) << *payload;
  const std::string json = payload->substr(payload->find('\n') + 1);
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u) << json;
  EXPECT_EQ(json.substr(json.size() - 2), "]}") << json;

  if (!metrics::kCompiledIn) {
    GTEST_SKIP() << "metrics sites compiled out: exposition is all-zero";
  }
  // The registry is process-global and cumulative across tests, so
  // assert lower bounds, not exact counts.
  EXPECT_GE(PromValue(prom, "gbx_server_requests_total{result=\"ok\"}"), n)
      << prom;
  EXPECT_GE(PromValue(prom, "gbx_server_frames_received_total"), n + 3);
  EXPECT_GE(PromValue(prom, "gbx_engine_requests_total"), n);
  EXPECT_GE(
      PromValue(prom, "gbx_server_request_ms_count"),
      PromValue(prom, "gbx_server_requests_total{result=\"ok\"}") - 1.0);
  EXPECT_NE(prom.find("# TYPE gbx_server_stage_ms histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("gbx_server_stage_ms_bucket{stage=\"compute\","
                      "le=\"+Inf\"}"),
            std::string::npos)
      << prom;

  // Monotonic re-scrape: another predict can only grow the counters.
  const double before =
      PromValue(prom, "gbx_server_requests_total{result=\"ok\"}");
  ASSERT_TRUE(client
                  .Call(FormatPredictPayload("", test.row(0),
                                             test.num_features()))
                  .ok());
  payload = client.Call("!metrics prom");
  ASSERT_TRUE(payload.ok());
  EXPECT_GE(PromValue(*payload, "gbx_server_requests_total{result=\"ok\"}"),
            before + 1.0);
}

TEST_F(ServerTest, TraceAttributionFitsClientObservedLatency) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const std::unique_ptr<Server> server =
      StartServer(OneModelRegistry(bundle));
  const Dataset& test = bundle.split.test;

  TestClient client(server->port());
  const auto sent = std::chrono::steady_clock::now();
  const StatusOr<std::string> predict = client.Call(
      FormatPredictPayload("", test.row(0), test.num_features()));
  const double client_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - sent)
                               .count();
  ASSERT_TRUE(predict.ok());
  ASSERT_EQ(predict->rfind("ok ", 0), 0) << *predict;

  StatusOr<std::string> payload = client.Call("!trace last 1");
  ASSERT_TRUE(payload.ok());
  ASSERT_EQ(payload->rfind("ok traces 1\n", 0), 0) << *payload;
  EXPECT_NE(payload->find("name=predict"), std::string::npos) << *payload;
  for (const char* span : {"queue_wait", "decode", "compute", "encode"}) {
    EXPECT_NE(payload->find(span), std::string::npos)
        << "missing span " << span << " in: " << *payload;
  }
  // The server's own attribution must fit inside what the client saw:
  // queue wait + compute happen strictly between send and receive.
  // (1 ms slack: client and server round timestamps independently.)
  const double attributed = SpanDurationMs(*payload, "queue_wait") +
                            SpanDurationMs(*payload, "compute");
  EXPECT_LE(attributed, client_ms + 1.0) << *payload;

  payload = client.Call("!trace bogus");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("error INVALID_ARGUMENT", 0), 0) << *payload;
}

TEST_F(ServerTest, SlowTraceThresholdRoutesToSlowRing) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  ServerOptions opts;
  opts.slow_trace_ms = 0.0001;  // everything is "slow"
  const std::unique_ptr<Server> server =
      StartServer(OneModelRegistry(bundle), opts);
  const Dataset& test = bundle.split.test;

  TestClient client(server->port());
  ASSERT_TRUE(client
                  .Call(FormatPredictPayload("", test.row(0),
                                             test.num_features()))
                  .ok());
  const StatusOr<std::string> payload = client.Call("!trace slow 4");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("ok traces ", 0), 0) << *payload;
  EXPECT_NE(*payload, "ok traces 0") << "slow ring empty";
  EXPECT_NE(payload->find("name=predict"), std::string::npos) << *payload;
}

TEST_F(ServerTest, RestartsCleanlyAndStopIsIdempotent) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const std::shared_ptr<ModelRegistry> registry = OneModelRegistry(bundle);
  const Dataset& test = bundle.split.test;

  for (int round = 0; round < 3; ++round) {
    Server server(registry);
    ASSERT_TRUE(server.Start().ok()) << "round " << round;
    TestClient client(server.port());
    const StatusOr<std::string> payload = client.Call(
        FormatPredictPayload("", test.row(round), test.num_features()));
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    const StatusOr<PredictReply> reply = ParsePredictReply(*payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->label, bundle.expected[round]);
    server.Stop();
    server.Stop();  // idempotent
    EXPECT_FALSE(server.running());
  }
}

TEST_F(ServerTest, StopDrainsInFlightRequests) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  auto server = std::make_unique<Server>(OneModelRegistry(bundle));
  ASSERT_TRUE(server->Start().ok());
  const Dataset& test = bundle.split.test;

  // Pipeline a burst, wait for the first response (so the server has
  // demonstrably ingested the burst), then Stop() while the rest are
  // still in flight: the drain must answer every accepted frame before
  // sockets close.
  TestClient client(server->port());
  const int n = std::min(48, test.size());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        client.Send(FormatPredictPayload("", test.row(i), test.num_features()))
            .ok());
  }
  StatusOr<std::string> first = client.Recv();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  StatusOr<PredictReply> first_reply = ParsePredictReply(*first);
  ASSERT_TRUE(first_reply.ok()) << first_reply.status().ToString();
  EXPECT_EQ(first_reply->label, bundle.expected[0]);

  std::thread stopper([&] { server->Stop(); });
  for (int i = 1; i < n; ++i) {
    const StatusOr<std::string> payload = client.Recv();
    ASSERT_TRUE(payload.ok())
        << "response " << i << " dropped by Stop(): "
        << payload.status().ToString();
    const StatusOr<PredictReply> reply = ParsePredictReply(*payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->label, bundle.expected[i]) << "position " << i;
  }
  stopper.join();
}

}  // namespace
}  // namespace gbx
