// Malformed-input battery for the gbx-wire front-end: truncated length
// prefixes, oversized declared lengths, garbage payloads, mid-frame
// disconnects, slow-loris dribbles, a maximal frame of padding, and a
// seeded-RNG mix of all of the above. The server must answer a
// structured error or close the connection — and keep serving valid
// clients — but never crash, hang, or leak (this suite runs under the
// asan CI job).
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace gbx {
namespace {

using servetest::MakeGbKnnBundle;
using servetest::ModelBundle;
using servetest::ParsePredictReply;
using servetest::PredictReply;
using servetest::SmallBatchOptions;
using servetest::TestClient;

/// A crafted frame header declaring `len` payload bytes.
std::string Header(std::uint32_t len) {
  std::string h(4, '\0');
  h[0] = static_cast<char>((len >> 24) & 0xff);
  h[1] = static_cast<char>((len >> 16) & 0xff);
  h[2] = static_cast<char>((len >> 8) & 0xff);
  h[3] = static_cast<char>(len & 0xff);
  return h;
}

class ProtocolFuzzTest : public servetest::ServeTestBase {
 protected:
  void SetUp() override {
    bundle_ = MakeGbKnnBundle("S5");
    auto registry = std::make_shared<ModelRegistry>(SmallBatchOptions());
    ASSERT_TRUE(
        registry->Publish("default", servetest::LoadBundle(bundle_)).ok());
    server_ = std::make_unique<Server>(registry, options_);
    ASSERT_TRUE(server_->Start().ok());
    counts_.emplace();
  }

  /// Framing and payload errors this test's server has answered (0 when
  /// metrics are compiled out).
  double ProtocolErrors() const {
    return (*counts_)("gbx_server_protocol_errors_total");
  }

  /// A fresh client must still get a bit-identical answer — the liveness
  /// probe every attack is followed by.
  void ExpectStillServing(int query = 0) {
    const Dataset& test = bundle_.split.test;
    TestClient probe(server_->port());
    const StatusOr<std::string> payload = probe.Call(FormatPredictPayload(
        "", test.row(query), test.num_features()));
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    const StatusOr<PredictReply> reply = ParsePredictReply(*payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->label, bundle_.expected[query]);
  }

  std::string ValidQuery(int i = 0) const {
    const Dataset& test = bundle_.split.test;
    return FormatPredictPayload("", test.row(i), test.num_features());
  }

  ServerOptions options_;
  ModelBundle bundle_;
  std::unique_ptr<Server> server_;
  std::optional<servetest::RegistryDelta> counts_;  // taken at Start()
};

TEST_F(ProtocolFuzzTest, TruncatedLengthPrefixThenDisconnect) {
  for (int cut = 1; cut < kFrameHeaderBytes; ++cut) {
    TestClient client(server_->port());
    const std::string header = Header(64);
    ASSERT_TRUE(client.SendRaw(header.data(), cut).ok());
    client.CloseAbruptly();
    ExpectStillServing(cut);
  }
}

TEST_F(ProtocolFuzzTest, OversizedDeclaredLengthGetsErrorThenClose) {
  for (const std::uint32_t len :
       {kDefaultMaxFrameBytes + 1, 0x7fffffffu, 0xffffffffu}) {
    TestClient client(server_->port());
    const std::string header = Header(len);
    ASSERT_TRUE(client.SendRaw(header.data(), header.size()).ok());
    // Framing is unrecoverable: one structured error frame, then close.
    const StatusOr<std::string> payload = client.Recv();
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(payload->rfind("error INVALID_ARGUMENT", 0), 0) << *payload;
    EXPECT_FALSE(client.Recv().ok());
    ExpectStillServing();
  }
  if (metrics::kCompiledIn) {
    EXPECT_GE(ProtocolErrors(), 3);
  }
}

TEST_F(ProtocolFuzzTest, ZeroLengthFrameIsAFramingError) {
  TestClient client(server_->port());
  const std::string header = Header(0);
  ASSERT_TRUE(client.SendRaw(header.data(), header.size()).ok());
  const StatusOr<std::string> payload = client.Recv();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(payload->rfind("error INVALID_ARGUMENT", 0), 0) << *payload;
  EXPECT_FALSE(client.Recv().ok());
  ExpectStillServing();
}

TEST_F(ProtocolFuzzTest, GarbagePayloadKeepsConnectionUsable) {
  TestClient client(server_->port());
  // (A zero-length frame is a *framing* error with close-after-error
  // semantics — covered by ZeroLengthFrameIsAFramingError above.)
  for (const std::string garbage :
       {"hello world", "@", "@model", "1,2,up", "nan", "\x01\x02\x7f",
        "@default"}) {
    const StatusOr<std::string> payload = client.Call(garbage);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(payload->rfind("error ", 0), 0) << "'" << garbage << "' -> "
                                              << *payload;
  }
  // Payload-level errors must not poison the stream.
  const StatusOr<std::string> payload = client.Call(ValidQuery());
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(payload->rfind("ok ", 0), 0) << *payload;
  // "nan" may parse to a NaN double (libc++) and be rejected by the
  // engine instead of the payload parser, so count conservatively.
  if (metrics::kCompiledIn) {
    EXPECT_GE(ProtocolErrors(), 6);
  }
}

TEST_F(ProtocolFuzzTest, WrongArityQueryIsAStructuredError) {
  TestClient client(server_->port());
  std::vector<double> wide(bundle_.split.test.num_features() + 3, 0.25);
  const StatusOr<std::string> payload = client.Call(FormatPredictPayload(
      "", wide.data(), static_cast<int>(wide.size())));
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->rfind("error INVALID_ARGUMENT", 0), 0) << *payload;
  ExpectStillServing();
}

// A payload is client-controlled, so parsing it must cost time linear in
// its size: a 1 MiB frame of leading blanks once took ~15 s to parse
// (each blank was erased from the front of the string in turn).
std::string BlankPaddedQuery() {
  const std::string query = "0.5,0.25";
  return std::string(kDefaultMaxFrameBytes - query.size(), ' ') + query;
}

TEST(PredictPayloadTest, MiBOfLeadingBlanksParsesInLinearTime) {
  const std::string payload = BlankPaddedQuery();
  ASSERT_EQ(payload.size(), kDefaultMaxFrameBytes);
  std::string model;
  std::vector<double> query;
  const Stopwatch watch;
  const Status parsed = ParsePredictPayload(payload, &model, &query);
  const double seconds = watch.ElapsedSeconds();
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(query, (std::vector<double>{0.5, 0.25}));
  EXPECT_LT(seconds, 0.5);
}

TEST_F(ProtocolFuzzTest, MiBOfLeadingBlanksIsServedAndTheWorkerFreed) {
  ASSERT_EQ(bundle_.split.test.num_features(), 2);
  TestClient client(server_->port());
  const StatusOr<std::string> payload = client.Call(BlankPaddedQuery());
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(payload->rfind("ok ", 0), 0) << payload->substr(0, 200);
  // The same connection and a fresh one both keep being served.
  const StatusOr<std::string> next = client.Call(ValidQuery(1));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  const StatusOr<PredictReply> reply = ParsePredictReply(*next);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->label, bundle_.expected[1]);
  ExpectStillServing(2);
}

TEST_F(ProtocolFuzzTest, MidFrameDisconnectNeverWedgesTheServer) {
  for (int i = 0; i < 8; ++i) {
    TestClient client(server_->port());
    const std::string header = Header(100);
    ASSERT_TRUE(client.SendRaw(header.data(), header.size()).ok());
    const std::string partial(10 + i, 'x');
    ASSERT_TRUE(client.SendRaw(partial.data(), partial.size()).ok());
    client.CloseAbruptly();
  }
  ExpectStillServing();
}

TEST_F(ProtocolFuzzTest, AbortWithResponsesInFlightDropsThemSafely) {
  // Completions for dead connections must be discarded, not delivered.
  for (int round = 0; round < 4; ++round) {
    TestClient client(server_->port());
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.Send(ValidQuery(i)).ok());
    }
    client.CloseAbruptly();  // responses still being computed
  }
  ExpectStillServing();
}

TEST_F(ProtocolFuzzTest, SeededRandomMalformedBatteryNeverKillsTheServer) {
  Pcg32 rng(20250808);
  const int kRounds = 120;
  for (int round = 0; round < kRounds; ++round) {
    TestClient client(server_->port());
    switch (rng.NextInt(0, 5)) {
      case 0: {  // random byte soup, unframed
        std::string soup(rng.NextInt(1, 64), '\0');
        for (char& b : soup) b = static_cast<char>(rng.NextInt(0, 255));
        (void)client.SendRaw(soup.data(), soup.size());
        break;
      }
      case 1: {  // valid header, random payload bytes
        const int len = rng.NextInt(1, 48);
        std::string payload(len, '\0');
        for (char& b : payload) b = static_cast<char>(rng.NextInt(0, 255));
        (void)client.Send(payload);
        (void)client.Recv();  // structured error (or close) — either is fine
        break;
      }
      case 2: {  // random declared length, no (or partial) payload
        const std::string header =
            Header(static_cast<std::uint32_t>(rng.NextU32()));
        (void)client.SendRaw(header.data(), header.size());
        break;
      }
      case 3: {  // mid-frame abort
        const std::string header = Header(rng.NextInt(8, 256));
        (void)client.SendRaw(header.data(), header.size());
        const std::string partial(rng.NextInt(1, 7), 'z');
        (void)client.SendRaw(partial.data(), partial.size());
        break;
      }
      case 4: {  // a valid query followed by garbage on the same stream
        (void)client.Send(ValidQuery(rng.NextInt(0, 31)));
        (void)client.Send("definitely not numbers");
        (void)client.Recv();
        (void)client.Recv();
        break;
      }
      default: {  // header split across two sends with a pause-free gap
        const std::string frame = EncodeFrame("!pin");  // near-miss admin
        (void)client.SendRaw(frame.data(), 2);
        (void)client.SendRaw(frame.data() + 2, frame.size() - 2);
        (void)client.Recv();
        break;
      }
    }
    client.CloseAbruptly();
    if (round % 10 == 9) ExpectStillServing(round % 32);
  }
  ExpectStillServing();
  if (metrics::kCompiledIn) {
    EXPECT_GT(ProtocolErrors(), 0);
  }
}

// --- slow-loris (its own fixture: the sweep needs idle_timeout_ms) ---

class SlowLorisTest : public ProtocolFuzzTest {
 protected:
  SlowLorisTest() { options_.idle_timeout_ms = 100.0; }
};

TEST_F(SlowLorisTest, StalledPartialFrameIsSweptClosed) {
  TestClient loris(server_->port());
  const std::string header = Header(64);
  ASSERT_TRUE(loris.SendRaw(header.data(), 2).ok());
  // Never send the rest: the idle sweep must reclaim the connection.
  const StatusOr<std::string> payload = loris.Recv();
  EXPECT_FALSE(payload.ok()) << *payload;
  ExpectStillServing();
}

TEST_F(SlowLorisTest, SlowButSteadyClientIsNotSwept) {
  // Dribble a valid frame one byte at a time — total transfer time far
  // exceeds idle_timeout_ms, but every byte makes progress, so the
  // sweep must leave the connection alone.
  TestClient client(server_->port());
  const std::string frame = EncodeFrame(ValidQuery());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(client.SendRaw(frame.data() + i, 1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const StatusOr<std::string> payload = client.Recv();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const StatusOr<PredictReply> reply = ParsePredictReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->label, bundle_.expected[0]);
}

TEST_F(SlowLorisTest, HealthyIdleConnectionSurvivesLongPredictions) {
  // An idle connection with no partial frame and nothing to flush is
  // healthy, not a loris: it must survive many sweep periods.
  TestClient client(server_->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const StatusOr<std::string> payload = client.Call(ValidQuery(1));
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(payload->rfind("ok ", 0), 0) << *payload;
}

}  // namespace
}  // namespace gbx
