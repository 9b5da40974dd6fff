// Network serving front-end: a single-threaded poll(2) event loop
// speaking gbx-wire v1 (serve/protocol.h) over TCP, in front of a
// ModelRegistry (serve/registry.h).
//
// Architecture — one I/O thread, W predict workers:
//
//   event loop (1 thread)          workers (num_workers threads)
//   ---------------------          -----------------------------
//   accept / read / write    --->  pop request, take a registry
//   decode frames, enqueue         snapshot, InferenceEngine::Predict
//   {conn, seq, payload}           (BLOCKS in the engine's micro-batch
//   deliver completions in         coalescing window), push completion,
//   per-connection seq order  <--  wake the loop via the self-pipe
//
// All socket I/O happens on the event-loop thread; workers never touch a
// socket. Because every worker funnels into the same InferenceEngine
// per model, concurrent requests from *different connections* coalesce
// into shared micro-batches — the engine's cross-caller batching becomes
// cross-client batching.
//
// Guarantees (enforced by tests/server_test.cc, protocol_fuzz_test.cc,
// hot_swap_test.cc):
//   * responses arrive in request order per connection (pipelining is
//     safe; out-of-order completions are reordered before writing);
//   * a request is answered by exactly one model version (registry
//     snapshot) and the response carries that version's checksum;
//   * malformed payloads get a structured "error ..." frame and the
//     connection stays open; framing-level corruption (zero/oversized
//     length) gets an error frame and then the connection is closed;
//   * mid-frame disconnects, slow-loris dribbles (see
//     ServerOptions::idle_timeout_ms), and abrupt client exits never
//     crash or leak — completions for dead connections are dropped;
//   * overload sheds instead of buffering: when the worker queue (or a
//     single connection's in-flight window) is full, new predict
//     requests get an immediate "error UNAVAILABLE: overloaded" reply
//     — in sequence order, connection kept open — while admin frames
//     ("!ping", "!stat") always pass, so the server stays observable
//     at peak (tests/chaos_test.cc);
//   * a request carrying "timeout_ms=T" whose deadline passes while it
//     waits in queue is answered "error DEADLINE_EXCEEDED" without
//     wasting a worker on a prediction the client already abandoned;
//   * a worker watchdog (ServerOptions::worker_stall_ms) detects
//     predict workers stuck past the deadline on one request, logs,
//     replaces them so capacity survives, and feeds the "!health"
//     liveness/readiness probe (tests/chaos_test.cc);
//   * Stop() drains: in-flight requests finish and their responses are
//     flushed (bounded by drain_timeout_s) before sockets close.
//
// Serving counts (connections, frames, errors, shed, deadlines, stalls,
// queue depth and peak) live only in the process-wide metrics registry
// (common/metrics.h, the gbx_server_* families): totals over every
// Server in the process, read by "!metrics" and "!stat". A caller that
// wants one server's share takes a before/after difference.
#ifndef GBX_SERVE_SERVER_H_
#define GBX_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace gbx {

struct ServerOptions {
  /// IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via Server::port().
  int port = 0;
  /// Predict worker threads = the max concurrent engine callers.
  /// <= 0 resolves via GBX_THREADS / hardware (common/parallel.h).
  int num_workers = 0;
  /// Framing cap forwarded to FrameDecoder.
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// > 0: close a connection whose partially-received frame (or
  /// unflushed response backlog) has made no progress for this long —
  /// the slow-loris guard. 0 disables the sweep.
  double idle_timeout_ms = 0.0;
  /// Route for payloads without an "@model" prefix.
  std::string default_model = "default";
  /// Admin "!swap NAME PATH" loads artifacts from the server's
  /// filesystem; disable for untrusted networks.
  bool allow_admin_swap = true;
  /// listen(2) backlog.
  int backlog = 128;
  /// How long Stop() waits for in-flight requests and response flushes.
  double drain_timeout_s = 5.0;
  /// Overload control: cap on predict requests queued for the worker
  /// pool across all connections. A request arriving at a full queue is
  /// *shed* — answered immediately with
  /// "error UNAVAILABLE: overloaded ..." instead of being buffered into
  /// an ever-growing latency queue (admin commands are never shed, so
  /// "!ping" health checks and "!stat" triage still work at peak).
  /// 0 disables the cap.
  std::size_t max_queue_depth = 1024;
  /// Per-connection cap on requests awaiting a response (queued or
  /// predicting). Bounds what one pipelining client can buffer in the
  /// server; excess requests are shed with UNAVAILABLE. 0 disables.
  std::uint64_t max_inflight_per_conn = 256;
  /// Predict requests whose end-to-end server time (queue wait through
  /// encode) reaches this land in the slow-trace ring and are logged
  /// with their full span tree ("!trace slow", common/trace.h).
  /// <= 0 disables slow capture.
  double slow_trace_ms = 100.0;
  /// > 0 arms the worker watchdog: a predict worker busy on a single
  /// request for longer than this is declared stalled (structured log +
  /// gbx_server_worker_stalls_total), abandoned, and replaced by a
  /// fresh worker thread so capacity survives; the stalled thread exits
  /// once its request finally completes (the response is still
  /// delivered). "!health" reports unready while any worker is
  /// stalled. 0 (default) disables the watchdog.
  double worker_stall_ms = 0.0;
};

/// Validates `options` (a negative worker_stall_ms is rejected). Run by
/// Server::Start() before any socket work, so a bad configuration
/// fails with InvalidArgument.
Status ValidateServerOptions(const ServerOptions& options);

class Server {
 public:
  explicit Server(std::shared_ptr<ModelRegistry> registry,
                  ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loop + workers. Fails with a
  /// descriptive Status (port in use, bad host, ...) without leaking.
  Status Start();

  /// Drains and joins everything. Idempotent; also run by ~Server().
  void Stop();

  bool running() const;
  /// The bound port (after Start(); the ephemeral one when port was 0).
  int port() const;
  ModelRegistry& registry();

 private:
  struct Impl;  // hides the socket/poll machinery from the header
  std::unique_ptr<Impl> impl_;
};

}  // namespace gbx

#endif  // GBX_SERVE_SERVER_H_
