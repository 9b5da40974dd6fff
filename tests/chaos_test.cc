// Chaos battery: every fault class the failpoint framework
// (common/failpoint.h) can inject, driven end-to-end through the
// serving stack, asserting the robustness contracts:
//
//   * a failed or torn SaveModel leaves the destination artifact
//     bit-identical and loadable (atomic temp+rename, model_io.h);
//   * a crash mid-save (before rename) cannot damage the old artifact;
//   * a failed Publish/!swap rolls back atomically — the old version
//     keeps serving, over the wire, and the :once modifier disarms;
//   * an EINTR storm across recv/send/accept/poll never corrupts a
//     response or drops a request;
//   * overload sheds with typed UNAVAILABLE replies while admin
//     commands still answer, and deadlines expire with typed
//     DEADLINE_EXCEEDED — both counted in the metrics registry and
//     shown by "!stat";
//   * the worker watchdog flags a predict worker stuck past its
//     deadline, replaces it (capacity survives), and drives the
//     "!health" probe unready -> ready across the stall.
//
// The whole battery GTEST_SKIPs when sites are compiled out
// (GBX_FAILPOINTS=OFF — the default plain-Release configuration); the
// CI chaos leg builds with -DGBX_FAILPOINTS=ON to run it.
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "data/split.h"
#include "ml/gb_knn.h"
#include "serve/model_io.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace gbx {
namespace {

using servetest::MakeGbKnnBundle;
using servetest::ModelBundle;
using servetest::ParsePredictReply;
using servetest::PredictReply;
using servetest::RegistryDelta;
using servetest::SmallBatchOptions;
using servetest::StatCount;
using servetest::SuiteSplit;
using servetest::TestClient;

GbKnnClassifier FitModel(std::uint64_t gbg_seed, int k = 3) {
  const TrainTestSplitResult split = SuiteSplit("S5");
  RdGbgConfig gbg;
  gbg.seed = gbg_seed;
  GbKnnClassifier model(gbg, k);
  Pcg32 fit_rng(5);
  model.Fit(split.train, &fit_rng);
  return model;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Failpoints::kCompiledIn) {
      GTEST_SKIP()
          << "failpoint sites are compiled out (build with -DGBX_FAILPOINTS=ON)";
    }
    Failpoints::Instance().ClearAll();
  }
  void TearDown() override { Failpoints::Instance().ClearAll(); }
};

// --- crash-safe artifact writes --------------------------------------

TEST_F(ChaosTest, TornWriteFailsTypedAndPreservesOldArtifact) {
  const GbKnnClassifier old_model = FitModel(17);
  const GbKnnClassifier new_model = FitModel(29, 5);
  const std::string path = ::testing::TempDir() + "/gbx_chaos_torn.gbx";
  ASSERT_TRUE(SaveModel(old_model, path).ok());
  const std::string old_bytes = ReadFileOrDie(path);
  ASSERT_NE(old_bytes, ModelToString(new_model)) << "bundles must differ";

  // partial_write(64): the replacement save persists 64 bytes of the
  // temp file, then fails as if the disk filled.
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("model_io.save.write", "partial_write(64):once")
                  .ok());
  const Status saved = SaveModel(new_model, path);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kResourceExhausted)
      << saved.ToString();
  EXPECT_GT(Failpoints::Instance().HitCount("model_io.save.write"), 0);

  // The destination never saw the torn write: bit-identical, loadable,
  // and the temp file was cleaned up.
  EXPECT_EQ(ReadFileOrDie(path), old_bytes);
  EXPECT_TRUE(LoadModel(path).ok());
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << "temp file left behind";

  // Disarmed (:once): the very next save goes through.
  ASSERT_TRUE(SaveModel(new_model, path).ok());
  EXPECT_EQ(ReadFileOrDie(path), ModelToString(new_model));
}

TEST_F(ChaosTest, SaveFaultsSurfaceTypedAndNeverTouchDestination) {
  const GbKnnClassifier old_model = FitModel(17);
  const GbKnnClassifier new_model = FitModel(29, 5);
  const std::string path = ::testing::TempDir() + "/gbx_chaos_enospc.gbx";
  ASSERT_TRUE(SaveModel(old_model, path).ok());
  const std::string old_bytes = ReadFileOrDie(path);

  const struct {
    const char* point;
    StatusCode want;
  } kFaults[] = {
      {"model_io.save.write", StatusCode::kResourceExhausted},  // ENOSPC
      {"model_io.save.open", StatusCode::kInternal},
      {"model_io.save.fsync", StatusCode::kInternal},
      {"model_io.save.rename", StatusCode::kInternal},
  };
  for (const auto& fault : kFaults) {
    SCOPED_TRACE(fault.point);
    ASSERT_TRUE(Failpoints::Instance().Set(fault.point, "error:once").ok());
    const Status saved = SaveModel(new_model, path);
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.code(), fault.want) << saved.ToString();
    EXPECT_EQ(ReadFileOrDie(path), old_bytes);
    const StatusOr<LoadedModel> reloaded = LoadModel(path);
    ASSERT_TRUE(reloaded.ok());
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    EXPECT_NE(::access(tmp.c_str(), F_OK), 0)
        << "temp file left behind after " << fault.point;
  }
}

TEST_F(ChaosTest, CrashMidSaveLeavesOldArtifactBitIdentical) {
  const GbKnnClassifier old_model = FitModel(17);
  const GbKnnClassifier new_model = FitModel(29, 5);
  const std::string path = ::testing::TempDir() + "/gbx_chaos_crash.gbx";
  ASSERT_TRUE(SaveModel(old_model, path).ok());
  const std::string old_bytes = ReadFileOrDie(path);
  const StatusOr<LoadedModel> before = LoadModel(path);
  ASSERT_TRUE(before.ok());

  // The process dies via _exit(86) after the temp file is fully
  // written and fsynced but before rename — the worst crash instant
  // for a non-atomic writer.
  EXPECT_EXIT(
      {
        (void)Failpoints::Instance().Set("model_io.save.crash_before_rename",
                                         "crash");
        (void)SaveModel(new_model, path);
        ::_exit(0);  // unreachable: the failpoint must kill us first
      },
      ::testing::ExitedWithCode(kFailpointCrashExitCode), "");

  // The survivor restarts on the old artifact, bit-identically.
  EXPECT_EQ(ReadFileOrDie(path), old_bytes);
  const StatusOr<LoadedModel> after = LoadModel(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->checksum, before->checksum);
}

// --- publish rollback over the wire ----------------------------------

TEST_F(ChaosTest, SwapFailureRollsBackAndOnceModifierDisarms) {
  const ModelBundle a = MakeGbKnnBundle("S5", 3, 17);
  const ModelBundle b = MakeGbKnnBundle("S5", 5, 29);
  const std::string path_b = ::testing::TempDir() + "/gbx_chaos_swap_b.gbx";
  { std::ofstream(path_b) << b.artifact; }

  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(registry->Publish("default", servetest::LoadBundle(a)).ok());
  Server server(registry);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());

  // Arm over the wire, exactly one failure.
  StatusOr<std::string> reply =
      client.Call("!fail set registry.publish.validate=error:once");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "ok failpoint registry.publish.validate=error:once");

  reply = client.Call("!swap default " + path_b);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rfind("error INTERNAL", 0), 0) << *reply;
  EXPECT_NE(reply->find("failpoint"), std::string::npos) << *reply;

  // Rollback oracle: version a still serves, same checksum, loop alive.
  const Dataset& test = a.split.test;
  const std::string query =
      FormatPredictPayload("", test.row(0), test.num_features());
  reply = client.Call(query);
  ASSERT_TRUE(reply.ok());
  StatusOr<PredictReply> predict = ParsePredictReply(*reply);
  ASSERT_TRUE(predict.ok()) << *reply;
  EXPECT_EQ(predict->label, a.expected[0]);
  EXPECT_EQ(predict->checksum, a.checksum);

  // :once disarmed itself after firing.
  reply = client.Call("!fail list");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "ok failpoints 0");

  // The retry succeeds and actually swaps.
  reply = client.Call("!swap default " + path_b);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rfind("ok swapped default v2", 0), 0) << *reply;
  reply = client.Call(query);
  ASSERT_TRUE(reply.ok());
  predict = ParsePredictReply(*reply);
  ASSERT_TRUE(predict.ok()) << *reply;
  EXPECT_EQ(predict->checksum, b.checksum);

  server.Stop();
}

// --- EINTR storm ------------------------------------------------------

TEST_F(ChaosTest, EintrStormAcrossAllSyscallSitesServesCorrectly) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const Dataset& test = bundle.split.test;
  const int n = std::min(test.size(), 40);

  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(
      registry->Publish("default", servetest::LoadBundle(bundle)).ok());
  Server server(registry);

  // every(K >= 2), never every(1): the retry loops re-evaluate the
  // site, so a site that fires on every evaluation would livelock.
  Failpoints& fps = Failpoints::Instance();
  ASSERT_TRUE(fps.Set("server.recv.eintr", "error:every(2)").ok());
  ASSERT_TRUE(fps.Set("server.send.eintr", "error:every(3)").ok());
  ASSERT_TRUE(fps.Set("server.accept.eintr", "error:every(2)").ok());
  ASSERT_TRUE(fps.Set("server.poll.eintr", "error:every(3)").ok());
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient client(server.port());
    for (int i = 0; i < n; ++i) {
      const StatusOr<std::string> reply = client.Call(
          FormatPredictPayload("", test.row(i), test.num_features()));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      const StatusOr<PredictReply> predict = ParsePredictReply(*reply);
      ASSERT_TRUE(predict.ok()) << *reply;
      EXPECT_EQ(predict->label, bundle.expected[i]) << "query " << i;
      EXPECT_EQ(predict->checksum, bundle.checksum);
    }
  }
  server.Stop();

  // The storm must actually have rained on every site.
  EXPECT_GT(fps.HitCount("server.recv.eintr"), 0);
  EXPECT_GT(fps.HitCount("server.send.eintr"), 0);
  EXPECT_GT(fps.HitCount("server.accept.eintr"), 0);
  EXPECT_GT(fps.HitCount("server.poll.eintr"), 0);
  fps.ClearAll();
}

// --- overload control and deadlines ----------------------------------

TEST_F(ChaosTest, OverloadShedsTypedRepliesAndAdminStaysResponsive) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const Dataset& test = bundle.split.test;
  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(
      registry->Publish("default", servetest::LoadBundle(bundle)).ok());
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 4;
  Server server(registry, opts);
  ASSERT_TRUE(server.Start().ok());
  const RegistryDelta delta;

  // Each request occupies the single worker for >= 20 ms: a 64-request
  // burst must overflow the 4-deep queue.
  ASSERT_TRUE(
      Failpoints::Instance().Set("server.worker.delay", "delay(20)").ok());

  TestClient client(server.port());
  const std::string query =
      FormatPredictPayload("", test.row(0), test.num_features());
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.Send(query).ok());
  }

  // Admin commands bypass the shed path: the server stays observable
  // while it grinds through (and sheds) the burst.
  TestClient admin(server.port());
  const StatusOr<std::string> pong = admin.Call("!ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "ok pong");

  int ok = 0, unavailable = 0;
  for (int i = 0; i < kBurst; ++i) {
    const StatusOr<std::string> reply = client.Recv();
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    if (reply->rfind("ok ", 0) == 0) {
      const StatusOr<PredictReply> predict = ParsePredictReply(*reply);
      ASSERT_TRUE(predict.ok()) << *reply;
      EXPECT_EQ(predict->label, bundle.expected[0]);
      ++ok;
    } else {
      EXPECT_EQ(reply->rfind("error UNAVAILABLE", 0), 0) << *reply;
      EXPECT_NE(reply->find("overloaded"), std::string::npos) << *reply;
      ++unavailable;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(unavailable, 0);
  EXPECT_EQ(ok + unavailable, kBurst);

  const StatusOr<std::string> stat = admin.Call("!stat");
  ASSERT_TRUE(stat.ok());
  if (metrics::kCompiledIn) {
    const std::string shed = "gbx_server_requests_shed_total";
    EXPECT_EQ(delta(shed), unavailable);
    EXPECT_EQ(StatCount(*stat, "shed") - delta.Before(shed), unavailable)
        << *stat;
    // Every shed here was a full queue (the burst is below the
    // per-connection cap), so the queue reached its cap.
    EXPECT_GE(StatCount(*stat, "queue_peak"),
              static_cast<double>(opts.max_queue_depth))
        << *stat;
  }

  server.Stop();
}

TEST_F(ChaosTest, QueuedDeadlineExpiresWithTypedReply) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const Dataset& test = bundle.split.test;
  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(
      registry->Publish("default", servetest::LoadBundle(bundle)).ok());
  ServerOptions opts;
  opts.num_workers = 1;
  Server server(registry, opts);
  ASSERT_TRUE(server.Start().ok());
  const RegistryDelta delta;

  // Request 1 (no deadline) parks the single worker for >= 30 ms;
  // request 2's 1 ms budget burns in the queue behind it.
  ASSERT_TRUE(
      Failpoints::Instance().Set("server.worker.delay", "delay(30)").ok());
  TestClient client(server.port());
  ASSERT_TRUE(
      client
          .Send(FormatPredictPayload("", test.row(0), test.num_features()))
          .ok());
  ASSERT_TRUE(
      client
          .Send(FormatPredictPayload("", test.row(1), test.num_features(),
                                     /*timeout_ms=*/1.0))
          .ok());

  StatusOr<std::string> reply = client.Recv();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rfind("ok ", 0), 0) << *reply;
  reply = client.Recv();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rfind("error DEADLINE_EXCEEDED", 0), 0) << *reply;
  EXPECT_NE(reply->find("expired"), std::string::npos) << *reply;

  const StatusOr<std::string> stat = client.Call("!stat");
  ASSERT_TRUE(stat.ok());
  if (metrics::kCompiledIn) {
    const std::string expired = "gbx_server_deadlines_expired_total";
    EXPECT_EQ(delta(expired), 1);
    EXPECT_EQ(StatCount(*stat, "deadline_expired") - delta.Before(expired), 1)
        << *stat;
  }

  // A generous deadline still predicts normally.
  reply = client.Call(FormatPredictPayload("", test.row(2),
                                           test.num_features(), 5000.0));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rfind("ok ", 0), 0) << *reply;

  server.Stop();
}

// --- worker watchdog --------------------------------------------------

TEST_F(ChaosTest, WatchdogReplacesStalledWorkerAndHealthRecovers) {
  const ModelBundle bundle = MakeGbKnnBundle("S5");
  const Dataset& test = bundle.split.test;
  auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
  ASSERT_TRUE(
      registry->Publish("default", servetest::LoadBundle(bundle)).ok());
  ServerOptions opts;
  opts.num_workers = 1;
  opts.worker_stall_ms = 50.0;
  Server server(registry, opts);
  ASSERT_TRUE(server.Start().ok());
  const RegistryDelta delta;

  // One request stalls the ONLY worker inside the predict path for
  // 400 ms — eight times the watchdog deadline.
  ASSERT_TRUE(Failpoints::Instance()
                  .Set("engine.predict.stall", "delay(400):once")
                  .ok());
  TestClient victim(server.port());
  ASSERT_TRUE(
      victim.Send(FormatPredictPayload("", test.row(0), test.num_features()))
          .ok());

  // The watchdog must flag the stuck worker and spawn a replacement —
  // which is exactly what keeps this "!health" probe answerable at all:
  // admin frames run through the same worker queue.
  TestClient admin(server.port());
  bool saw_unready = false;
  for (int i = 0; i < 400 && !saw_unready; ++i) {
    const StatusOr<std::string> health = admin.Call("!health");
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    saw_unready = health->rfind("ok health unready", 0) == 0 &&
                  health->find("workers-stalled") != std::string::npos;
    if (!saw_unready) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(saw_unready) << "watchdog never flagged the stuck worker";

  // The stalled request is late, not lost: its response still arrives,
  // correct, once the failpoint delay elapses.
  const StatusOr<std::string> reply = victim.Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const StatusOr<PredictReply> predict = ParsePredictReply(*reply);
  ASSERT_TRUE(predict.ok()) << *reply;
  EXPECT_EQ(predict->label, bundle.expected[0]);

  // With the stuck worker's request completed, the stalled count clears
  // and the probe flips back to ready (the replacement keeps serving).
  bool recovered = false;
  for (int i = 0; i < 400 && !recovered; ++i) {
    const StatusOr<std::string> health = admin.Call("!health");
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    recovered = health->rfind("ok health ready", 0) == 0;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(recovered) << "health never recovered after the stall";

  const StatusOr<std::string> stat = admin.Call("!stat");
  ASSERT_TRUE(stat.ok());
  if (metrics::kCompiledIn) {
    const std::string stalls = "gbx_server_worker_stalls_total";
    EXPECT_EQ(delta(stalls), 1);
    EXPECT_EQ(StatCount(*stat, "worker_stalls") - delta.Before(stalls), 1)
        << *stat;
  }

  server.Stop();
}

}  // namespace
}  // namespace gbx
