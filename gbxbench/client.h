// Single-threaded, pipelined, open-loop load client for the gbx-wire v1
// server (src/serve/protocol.h).
//
// Predict requests are due on a fixed schedule (request i at t0 + i/rate)
// and are written as soon as they are due, whatever is still in flight, so
// a stall in the server shows up as queueing delay rather than as a lower
// offered rate. Latency is timed from the scheduled send, not the actual
// one, and the client reports how late it ran against its own schedule.
// Requests round-robin over `predict_conns` connections; a separate admin
// connection carries "!health" probes and "!metrics json" scrapes on
// their own schedules. Every "ok" reply is checked against the label the
// in-process model gives the same query and against the artifact
// checksum.
#ifndef GBXBENCH_CLIENT_H_
#define GBXBENCH_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace gbxbench {

/// What the client sends and how it checks the replies. The vectors must
/// outlive the client.
struct ServingTarget {
  int port = 0;
  /// One encoded request frame per query (header + payload).
  const std::vector<std::string>* frames = nullptr;
  /// In-process PredictBatch label per query.
  const std::vector<int>* expected = nullptr;
  /// The serving artifact's checksum as the server prints it (%016llx).
  std::string checksum_hex;
};

/// Outcome of one scheduled phase.
struct PhaseStats {
  std::string name;
  double rate_qps = 0.0;
  double seconds = 0.0;
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  /// Error replies, refusals, unanswered requests and wrong replies.
  std::int64_t failed = 0;
  /// "error UNAVAILABLE" refusals (a subset of failed).
  std::int64_t shed = 0;
  /// "ok" replies whose label or checksum disagreed (a subset of failed).
  std::int64_t wrong = 0;
  /// Predict latency of each ok reply, ms from its scheduled send.
  std::vector<double> latency_ms;
  /// How late each predict was written against its schedule, ms.
  std::vector<double> late_ms;
  std::int64_t admin_sent = 0;
  std::int64_t admin_ok = 0;
  std::int64_t admin_failed = 0;
  /// "!health" round trips, ms from the scheduled send.
  std::vector<double> health_ms;
  /// Process CPU time (user + system, every thread) spent in the phase,
  /// seconds; filled in by the caller.
  double cpu_s = 0.0;
  /// Scheduled time of the first predict and arrival of the last ok
  /// reply, seconds on the NowS() clock.
  double first_sched_s = 0.0;
  double last_ok_s = 0.0;
  /// Ok replies per second, from the first scheduled send to the last ok
  /// reply.
  double achieved_qps() const {
    return last_ok_s > first_sched_s ? ok / (last_ok_s - first_sched_s) : 0.0;
  }
};

class LoadClient {
 public:
  LoadClient(ServingTarget target, int predict_conns);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens the predict connections and the admin connection.
  bool Connect(std::string* error);

  /// Runs one phase: `rate` predicts/s for `seconds`, plus "!health" at
  /// `health_rate`/s and "!metrics json" at `scrape_rate`/s on the admin
  /// connection (0 disables either). Waits up to `drain_s` after the
  /// schedule ends for outstanding replies; what is still missing then
  /// counts as failed and the connections are reopened.
  PhaseStats Run(const std::string& name, double rate, double seconds,
                 double health_rate, double scrape_rate, double drain_s);

  /// Closed loop: keeps `window` predicts in flight on every predict
  /// connection for `seconds`, sending the next as soon as a reply
  /// arrives, so the server runs at its saturation throughput. Latency is
  /// timed from the actual send. Drains like Run.
  PhaseStats RunClosed(const std::string& name, double seconds, int window,
                       double drain_s);

  /// Median closed-loop round trip, microseconds, of `n` sequential
  /// admin requests carrying `payload` on the admin connection; NaN if
  /// any fails.
  double AdminRoundTripUs(const std::string& payload, int n);

 private:
  enum class Kind { kPredict, kHealth, kScrape, kProbe };
  struct Pending {
    Kind kind;
    int query;
    double sched_s;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    gbx::FrameDecoder decoder;
    std::deque<Pending> pending;
  };

  bool Open(Conn* c, std::string* error);
  void Close(Conn* c);
  /// Writes as much of c->out as the socket takes; false on a dead peer.
  bool Flush(Conn* c);
  /// Reads what is available and hands each complete reply to
  /// HandleReply; false on a dead peer or a framing error.
  bool Drain(Conn* c, PhaseStats* stats);
  void HandleReply(const Pending& p, const std::string& payload,
                   PhaseStats* stats);
  /// Counts what is still pending as failed and reopens those
  /// connections (all of them when `broken`), so the next phase never
  /// matches a reply to a stale request.
  void FailPending(bool broken, PhaseStats* stats);

  ServingTarget target_;
  std::vector<Conn> conns_;  // predict connections, then the admin one
  std::int64_t query_cursor_ = 0;
};

}  // namespace gbxbench

#endif  // GBXBENCH_CLIENT_H_
