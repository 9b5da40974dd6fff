#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "index/index_strategy.h"
#include "ml/gb_knn.h"
#include "serve/model_io.h"
#include "simd/simd.h"

namespace gbx {

namespace {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Readiness over poll(2), level-triggered: which registered fds are
/// ready. The server asks for readability on every registered fd and
/// toggles write interest per connection as output queues up; the class
/// keeps the pollfd array and its fd -> slot index in step.
class Poller {
 public:
  void Add(int fd, bool want_write) {
    index_[fd] = fds_.size();
    fds_.push_back({fd, WantedEvents(want_write), 0});
  }

  void Update(int fd, bool want_write) {
    const auto it = index_.find(fd);
    GBX_CHECK(it != index_.end());
    fds_[it->second].events = WantedEvents(want_write);
  }

  void Remove(int fd) {
    const auto it = index_.find(fd);
    GBX_CHECK(it != index_.end());
    const std::size_t pos = it->second;
    index_.erase(it);
    if (pos + 1 != fds_.size()) {
      fds_[pos] = fds_.back();
      index_[fds_[pos].fd] = pos;
    }
    fds_.pop_back();
  }

  /// Appends ready events to *out. timeout_ms < 0 blocks indefinitely.
  void Wait(int timeout_ms, std::vector<PollEvent>* out) {
    // Retry EINTR here (not in the caller): a signal mid-wait must not
    // be mistaken for "no events". "server.poll.eintr" simulates the
    // interruption (arm with :every(K>=2) — every(1) never stops).
    int n;
    do {
      if (GBX_FAILPOINT_EVAL("server.poll.eintr").error()) {
        errno = EINTR;
        n = -1;
        continue;
      }
      n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      PollEvent ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out->push_back(ev);
    }
  }

 private:
  static short WantedEvents(bool want_write) {
    return static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
  }

  std::vector<pollfd> fds_;
  std::unordered_map<int, std::size_t> index_;
};

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  GBX_CHECK(flags >= 0);
  GBX_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

std::string ErrorPayload(const Status& status) {
  return std::string("error ") + StatusCodeName(status.code()) + ": " +
         status.message();
}

std::string ChecksumHex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return buf;
}

// --- syscall wrappers with EINTR-simulation failpoints ---------------
// An armed `error` action makes the call report EINTR without touching
// the socket, exercising every retry loop in this file under an
// "EINTR storm" (tests/chaos_test.cc). Arm with :every(K>=2): the retry
// loops re-evaluate the site, so every(1) would never stop firing.

ssize_t RecvFp(int fd, char* buf, std::size_t n) {
  if (GBX_FAILPOINT_EVAL("server.recv.eintr").error()) {
    errno = EINTR;
    return -1;
  }
  return ::recv(fd, buf, n, 0);
}

ssize_t SendFp(int fd, const char* buf, std::size_t n) {
  if (GBX_FAILPOINT_EVAL("server.send.eintr").error()) {
    errno = EINTR;
    return -1;
  }
  return ::send(fd, buf, n, MSG_NOSIGNAL);
}

int AcceptFp(int fd) {
  if (GBX_FAILPOINT_EVAL("server.accept.eintr").error()) {
    errno = EINTR;
    return -1;
  }
  return ::accept(fd, nullptr, nullptr);
}

}  // namespace

Status ValidateServerOptions(const ServerOptions& options) {
  if (options.worker_stall_ms < 0.0) {
    return Status::InvalidArgument("worker_stall_ms must be >= 0");
  }
  return Status::Ok();
}

struct Server::Impl {
  struct Request {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string payload;
    /// clock time at enqueue — the reference point for "timeout_ms="
    /// deadlines (time spent queued counts against the deadline).
    double enqueue_s = 0.0;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string payload;
  };

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    // Responses must leave in request order: completions park in
    // `ready` until every lower seq has been appended to `outbuf`.
    std::uint64_t next_seq = 0;      // next request seq to assign
    std::uint64_t next_to_send = 0;  // next response seq to append
    std::map<std::uint64_t, std::string> ready;  // seq -> encoded frame
    std::uint64_t in_flight = 0;
    std::string outbuf;
    std::size_t out_pos = 0;
    bool want_write = false;
    bool closing = false;  // close once responses are assigned + flushed
    bool peer_eof = false;
    double last_progress_s = 0.0;

    explicit Connection(std::uint32_t max_frame) : decoder(max_frame) {}
    bool flushed() const { return out_pos == outbuf.size(); }
  };

  std::shared_ptr<ModelRegistry> registry;
  ServerOptions opts;

  int listen_fd = -1;
  int wake_r = -1, wake_w = -1;
  int bound_port = 0;
  Poller poller;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;       // by fd
  std::unordered_map<std::uint64_t, Connection*> conns_by_id;
  std::uint64_t next_conn_id = 1;

  std::thread loop;
  std::vector<std::thread> workers;

  // --- worker watchdog -------------------------------------------------
  //
  // One slot per worker thread (including watchdog-spawned
  // replacements). `busy_since_s` is the whole protocol:
  //   -1            idle (waiting on the queue)
  //   t >= 0        busy on one request since clock time t
  //   kStalledSlot  flagged by the watchdog; the worker must exit after
  //                 finishing its current request
  // The watchdog flags with a CAS from the observed busy timestamp, and
  // the worker finishes with an exchange(-1) — whichever side wins the
  // race, the bookkeeping (workers_stalled_/workers_alive_) stays
  // exact. Slots are created on the Start()/event-loop thread only and
  // outlive their worker (unique_ptr in a grow-only vector).
  static constexpr double kStalledSlot = -2.0;
  struct WorkerSlot {
    std::atomic<double> busy_since_s{-1.0};
  };
  std::vector<std::unique_ptr<WorkerSlot>> worker_slots;
  std::atomic<int> workers_alive{0};
  std::atomic<int> workers_stalled{0};

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Request> queue;
  bool queue_closed = false;

  std::mutex comp_mu;
  std::vector<Completion> completions;

  std::atomic<bool> stop_requested{false};
  std::atomic<bool> running{false};
  /// Requests enqueued but whose completion has not yet been delivered
  /// to (or dropped with) their connection — the drain gate.
  std::atomic<std::int64_t> outstanding{0};

  Stopwatch clock;

  // --- the process-wide metrics registry's gbx_server_* families -------
  //
  // The only store of serving counts: process totals shared by every
  // Server in the process, scraped via "!metrics" and read by "!stat".
  metrics::Counter* m_accepted;
  metrics::Counter* m_closed;
  metrics::Counter* m_frames_rx;
  metrics::Counter* m_frames_tx;
  metrics::Counter* m_proto_err;
  metrics::Counter* m_shed;
  metrics::Counter* m_deadline;
  metrics::Counter* m_req_ok;
  metrics::Counter* m_req_error;
  metrics::Counter* m_worker_stalls;
  metrics::Counter* m_workers_replaced;
  metrics::Gauge* g_queue_depth;
  metrics::Gauge* g_queue_peak;
  metrics::Gauge* g_conns_open;
  metrics::Gauge* g_workers_alive;
  metrics::Gauge* g_workers_stalled;
  metrics::Histogram* h_queue_wait;
  metrics::Histogram* h_decode;
  metrics::Histogram* h_batch_assembly;
  metrics::Histogram* h_compute;
  metrics::Histogram* h_encode;
  metrics::Histogram* h_request;
  std::atomic<std::uint64_t> next_trace_id{1};

  Impl() {
    auto& reg = metrics::MetricsRegistry::Default();
    m_accepted = reg.GetCounter("gbx_server_connections_accepted_total", {},
                                "TCP connections accepted");
    m_closed = reg.GetCounter("gbx_server_connections_closed_total", {},
                              "TCP connections closed");
    m_frames_rx = reg.GetCounter("gbx_server_frames_received_total", {},
                                 "Request frames decoded");
    m_frames_tx = reg.GetCounter("gbx_server_frames_sent_total", {},
                                 "Response frames queued for send");
    m_proto_err = reg.GetCounter("gbx_server_protocol_errors_total", {},
                                 "Framing and payload errors");
    m_shed = reg.GetCounter("gbx_server_requests_shed_total", {},
                            "Requests shed by overload control");
    m_deadline = reg.GetCounter("gbx_server_deadlines_expired_total", {},
                                "Requests expired in queue");
    m_req_ok = reg.GetCounter("gbx_server_requests_total",
                              {{"result", "ok"}}, "Predict requests handled");
    m_req_error = reg.GetCounter("gbx_server_requests_total",
                                 {{"result", "error"}},
                                 "Predict requests handled");
    m_worker_stalls = reg.GetCounter(
        "gbx_server_worker_stalls_total", {},
        "Predict workers declared stalled by the watchdog");
    m_workers_replaced = reg.GetCounter(
        "gbx_server_workers_replaced_total", {},
        "Replacement workers spawned by the watchdog");
    g_queue_depth = reg.GetGauge("gbx_server_queue_depth", {},
                                 "Worker queue depth");
    g_queue_peak = reg.GetGauge("gbx_server_queue_peak", {},
                                "Worker queue high-water mark");
    g_conns_open = reg.GetGauge("gbx_server_connections_open", {},
                                "Currently open connections");
    g_workers_alive = reg.GetGauge("gbx_server_workers_alive", {},
                                   "Healthy predict workers");
    g_workers_stalled = reg.GetGauge(
        "gbx_server_workers_stalled", {},
        "Workers currently stuck past the watchdog deadline");
    const std::string stage_help =
        "Per-stage serving latency (ms); stages: queue_wait, decode, "
        "batch_assembly, compute, encode";
    h_queue_wait = reg.GetHistogram("gbx_server_stage_ms",
                                    {{"stage", "queue_wait"}}, stage_help);
    h_decode = reg.GetHistogram("gbx_server_stage_ms", {{"stage", "decode"}},
                                stage_help);
    h_batch_assembly = reg.GetHistogram(
        "gbx_server_stage_ms", {{"stage", "batch_assembly"}}, stage_help);
    h_compute = reg.GetHistogram("gbx_server_stage_ms", {{"stage", "compute"}},
                                 stage_help);
    h_encode = reg.GetHistogram("gbx_server_stage_ms", {{"stage", "encode"}},
                                stage_help);
    h_request = reg.GetHistogram(
        "gbx_server_request_ms", {},
        "End-to-end server time per predict request (ms)");
  }

  // --- lifecycle -------------------------------------------------------

  Status Start() {
    GBX_CHECK_MSG(!running.load(), "Server::Start called twice");
    GBX_RETURN_IF_ERROR(ValidateServerOptions(opts));
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return ErrnoStatus("socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
    if (inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
      CloseStartupFds();
      return Status::InvalidArgument("bad IPv4 host '" + opts.host + "'");
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const Status status = ErrnoStatus(
          "bind " + opts.host + ":" + std::to_string(opts.port));
      CloseStartupFds();
      return status;
    }
    if (::listen(listen_fd, opts.backlog) != 0) {
      const Status status = ErrnoStatus("listen");
      CloseStartupFds();
      return status;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    GBX_CHECK(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                            &len) == 0);
    bound_port = ntohs(bound.sin_port);
    SetNonBlocking(listen_fd);

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      const Status status = ErrnoStatus("pipe");
      CloseStartupFds();
      return status;
    }
    wake_r = pipe_fds[0];
    wake_w = pipe_fds[1];
    SetNonBlocking(wake_r);
    SetNonBlocking(wake_w);

    poller.Add(listen_fd, false);
    poller.Add(wake_r, false);

    trace::TraceRing::Default().set_slow_threshold_ms(opts.slow_trace_ms);

    const int n_workers =
        std::max(1, std::min(ResolveNumThreads(opts.num_workers), 64));
    stop_requested.store(false);
    queue_closed = false;
    running.store(true);
    worker_slots.clear();
    workers_alive.store(0);
    workers_stalled.store(0);
    workers.reserve(n_workers);
    for (int i = 0; i < n_workers; ++i) SpawnWorker();
    loop = std::thread([this] { LoopMain(); });
    GBX_SLOG(kInfo, "server.start")
        .Kv("host", opts.host)
        .Kv("port", bound_port)
        .Kv("workers", n_workers)
        .Kv("max_queue_depth", static_cast<std::int64_t>(opts.max_queue_depth))
        .Kv("slow_trace_ms", opts.slow_trace_ms)
        .Kv("worker_stall_ms", opts.worker_stall_ms);
    return Status::Ok();
  }

  /// Spawns one worker thread with its own watchdog slot. Called from
  /// Start() and from the watchdog (event-loop thread) when replacing a
  /// stalled worker.
  void SpawnWorker() {
    worker_slots.push_back(std::make_unique<WorkerSlot>());
    WorkerSlot* slot = worker_slots.back().get();
    workers_alive.fetch_add(1, std::memory_order_relaxed);
    g_workers_alive->Add(1);
    workers.emplace_back([this, slot] { WorkerLoop(slot); });
  }

  void Stop() {
    if (!running.exchange(false)) return;
    GBX_SLOG(kInfo, "server.stop").Kv("port", bound_port);
    stop_requested.store(true);
    Wake();
    loop.join();
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      queue_closed = true;
    }
    queue_cv.notify_all();
    for (std::thread& w : workers) w.join();
    workers.clear();
    worker_slots.clear();
    // Completions pushed after the loop exited belong to closed
    // connections; drop them.
    {
      std::lock_guard<std::mutex> lock(comp_mu);
      completions.clear();
    }
    queue.clear();
    ::close(wake_r);
    ::close(wake_w);
    wake_r = wake_w = -1;
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    poller = Poller();
  }

  void CloseStartupFds() {
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
  }

  void Wake() {
    const char b = 'w';
    // EAGAIN means the pipe already holds a pending wakeup — fine. A
    // lost EINTR'd wakeup is NOT fine (the loop could sleep a full
    // poll timeout with completions pending), so retry those.
    ssize_t n;
    do {
      n = ::write(wake_w, &b, 1);
    } while (n < 0 && errno == EINTR);
  }

  // --- event loop ------------------------------------------------------

  void LoopMain() {
    std::vector<PollEvent> events;
    double drain_deadline_s = -1.0;
    for (;;) {
      events.clear();
      poller.Wait(WaitTimeoutMs(drain_deadline_s >= 0), &events);
      const double now_s = clock.ElapsedSeconds();
      for (const PollEvent& ev : events) {
        if (ev.fd == listen_fd && listen_fd >= 0) {
          AcceptAll(now_s);
        } else if (ev.fd == wake_r) {
          DrainWakePipe();
        } else {
          HandleConnEvent(ev, now_s);
        }
      }
      DeliverCompletions(now_s);
      if (opts.worker_stall_ms > 0) SweepWorkers(now_s);
      if (opts.idle_timeout_ms > 0) SweepIdle(now_s);
      if (stop_requested.load()) {
        if (drain_deadline_s < 0) {
          // Stop accepting; keep serving until in-flight work drains.
          if (listen_fd >= 0) {
            poller.Remove(listen_fd);
            ::close(listen_fd);
            listen_fd = -1;
          }
          drain_deadline_s = now_s + opts.drain_timeout_s;
        }
        if ((outstanding.load() == 0 && AllFlushed()) ||
            now_s > drain_deadline_s) {
          break;
        }
      }
    }
    // Close whatever is left (drain finished or timed out).
    while (!conns.empty()) CloseConn(conns.begin()->second.get());
  }

  int WaitTimeoutMs(bool draining) const {
    if (draining) return 10;
    // Bounded so Stop() is never waiting on a quiet socket.
    int t = 200;
    if (opts.idle_timeout_ms > 0) {
      t = std::max(1, static_cast<int>(opts.idle_timeout_ms / 2));
    }
    // The watchdog must keep sweeping on a quiet socket too: it fires
    // from these timeouts.
    if (opts.worker_stall_ms > 0) {
      t = std::min(t, std::max(1, static_cast<int>(opts.worker_stall_ms / 2)));
    }
    return t;
  }

  /// Flags workers stuck on one request past the deadline and replaces
  /// them. Event-loop thread only.
  void SweepWorkers(double now_s) {
    const double limit_s = opts.worker_stall_ms / 1e3;
    int replacements = 0;
    const std::size_t n = worker_slots.size();
    for (std::size_t i = 0; i < n; ++i) {
      WorkerSlot* slot = worker_slots[i].get();
      double busy = slot->busy_since_s.load(std::memory_order_relaxed);
      if (busy < 0.0 || now_s - busy <= limit_s) continue;
      // CAS from the observed timestamp: if the worker finished (or
      // started a new request) in between, the flag must not land.
      if (!slot->busy_since_s.compare_exchange_strong(
              busy, kStalledSlot, std::memory_order_relaxed)) {
        continue;
      }
      workers_alive.fetch_sub(1, std::memory_order_relaxed);
      g_workers_alive->Sub(1);
      workers_stalled.fetch_add(1, std::memory_order_relaxed);
      g_workers_stalled->Add(1);
      m_worker_stalls->Inc();
      GBX_SLOG(kError, "server.worker.stalled")
          .Kv("slot", static_cast<std::int64_t>(i))
          .Kv("busy_ms", (now_s - busy) * 1e3)
          .Kv("deadline_ms", opts.worker_stall_ms);
      ++replacements;
    }
    for (int i = 0; i < replacements; ++i) {
      SpawnWorker();
      m_workers_replaced->Inc();
      GBX_SLOG(kWarn, "server.worker.replaced")
          .Kv("workers_alive",
              static_cast<std::int64_t>(
                  workers_alive.load(std::memory_order_relaxed)));
    }
  }

  bool AllFlushed() const {
    for (const auto& [fd, c] : conns) {
      if (!c->flushed() || !c->ready.empty()) return false;
    }
    return true;
  }

  void AcceptAll(double now_s) {
    for (;;) {
      const int fd = AcceptFp(listen_fd);
      if (fd < 0) {
        if (errno == EINTR) continue;  // interrupted, not drained: retry
        return;  // EAGAIN (drained) or transient failure; poll re-arms
      }
      SetNonBlocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Connection>(opts.max_frame_bytes);
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->last_progress_s = now_s;
      conns_by_id[conn->id] = conn.get();
      poller.Add(fd, false);
      conns[fd] = std::move(conn);
      m_accepted->Inc();
      g_conns_open->Add(1);
    }
  }

  void DrainWakePipe() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::read(wake_r, buf, sizeof(buf));
      if (n > 0) continue;
      if (n < 0 && errno == EINTR) continue;  // interrupted != drained
      break;  // EAGAIN: fully drained
    }
  }

  void HandleConnEvent(const PollEvent& ev, double now_s) {
    const auto it = conns.find(ev.fd);
    if (it == conns.end()) return;  // closed earlier in this batch
    Connection* c = it->second.get();
    if (ev.error) {
      CloseConn(c);
      return;
    }
    if (ev.readable) {
      if (!ReadFromConn(c, now_s)) return;  // connection closed
    }
    if (ev.writable) {
      FlushWrites(c, now_s);
    }
  }

  /// Returns false when the connection was closed.
  bool ReadFromConn(Connection* c, double now_s) {
    char buf[65536];
    // Bounded passes per event so one firehose connection cannot starve
    // the rest; level-triggered polling re-notifies for the remainder.
    for (int pass = 0; pass < 16; ++pass) {
      const ssize_t n = RecvFp(c->fd, buf, sizeof(buf));
      if (n > 0) {
        c->decoder.Feed(buf, static_cast<std::size_t>(n));
        c->last_progress_s = now_s;
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      } else if (n == 0) {
        c->peer_eof = true;
        break;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else if (errno == EINTR) {
        continue;
      } else {
        CloseConn(c);
        return false;
      }
    }

    std::string payload, error;
    for (;;) {
      const FrameDecoder::Result r = c->decoder.Next(&payload, &error);
      if (r == FrameDecoder::Result::kFrame) {
        m_frames_rx->Inc();
        EnqueueRequest(c, std::move(payload), now_s);
        payload.clear();
      } else if (r == FrameDecoder::Result::kNeedMore) {
        break;
      } else {
        // Framing is unrecoverable: answer a structured error *after*
        // the responses already owed on this connection, then close.
        if (!c->closing) {
          m_proto_err->Inc();
          const std::uint64_t seq = c->next_seq++;
          c->ready[seq] =
              EncodeFrame(ErrorPayload(Status::InvalidArgument(error)));
          c->closing = true;
          ::shutdown(c->fd, SHUT_RD);
        }
        break;
      }
    }
    return MaybeFlushAndClose(c, now_s);
  }

  void EnqueueRequest(Connection* c, std::string payload, double now_s) {
    const std::uint64_t seq = c->next_seq++;
    // Overload control: a predict request that would overflow the
    // bounded worker queue (or one connection's pipelining window) is
    // shed — answered right here, in sequence order via `ready`, and
    // never buffered. Admin frames bypass the caps: "!ping" health
    // checks and "!stat" triage must keep working at peak load.
    const bool admin = !payload.empty() && payload[0] == '!';
    if (!admin) {
      const char* reason = nullptr;
      if (opts.max_inflight_per_conn > 0 &&
          c->in_flight >= opts.max_inflight_per_conn) {
        reason = "connection pipeline full";
      } else if (opts.max_queue_depth > 0) {
        std::lock_guard<std::mutex> lock(queue_mu);
        if (queue.size() >= opts.max_queue_depth) reason = "worker queue full";
      }
      if (reason != nullptr) {
        m_shed->Inc();
        c->ready[seq] = EncodeFrame(ErrorPayload(Status::Unavailable(
            std::string("overloaded (") + reason +
            "); retry with backoff")));
        return;  // caller's MaybeFlushAndClose flushes the shed reply
      }
    }
    ++c->in_flight;
    outstanding.fetch_add(1);
    {
      // The depth gauge is set under the lock so a racing pop cannot
      // leave it stale.
      std::lock_guard<std::mutex> lock(queue_mu);
      queue.push_back(Request{c->id, seq, std::move(payload), now_s});
      const auto depth = static_cast<std::int64_t>(queue.size());
      g_queue_depth->Set(depth);
      g_queue_peak->SetMax(depth);
    }
    queue_cv.notify_one();
  }

  void DeliverCompletions(double now_s) {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(comp_mu);
      batch.swap(completions);
    }
    for (Completion& comp : batch) {
      outstanding.fetch_sub(1);
      const auto it = conns_by_id.find(comp.conn_id);
      if (it == conns_by_id.end()) continue;  // connection died meanwhile
      Connection* c = it->second;
      GBX_CHECK_GT(c->in_flight, 0u);
      --c->in_flight;
      c->ready[comp.seq] = EncodeFrame(comp.payload);
      MaybeFlushAndClose(c, now_s);
    }
  }

  /// Moves in-order ready responses into the output buffer, writes what
  /// the socket will take, and closes if this connection is finished.
  /// Returns false when the connection was closed.
  bool MaybeFlushAndClose(Connection* c, double now_s) {
    for (auto it = c->ready.find(c->next_to_send); it != c->ready.end();
         it = c->ready.find(c->next_to_send)) {
      c->outbuf += it->second;
      c->ready.erase(it);
      ++c->next_to_send;
      m_frames_tx->Inc();
    }
    return FlushWrites(c, now_s);
  }

  /// Returns false when the connection was closed.
  bool FlushWrites(Connection* c, double now_s) {
    while (c->out_pos < c->outbuf.size()) {
      const ssize_t n = SendFp(c->fd, c->outbuf.data() + c->out_pos,
                               c->outbuf.size() - c->out_pos);
      if (n > 0) {
        c->out_pos += static_cast<std::size_t>(n);
        c->last_progress_s = now_s;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        CloseConn(c);  // EPIPE / ECONNRESET: peer is gone
        return false;
      }
    }
    if (c->flushed()) {
      c->outbuf.clear();
      c->out_pos = 0;
      if (c->want_write) {
        c->want_write = false;
        poller.Update(c->fd, false);
      }
      const bool finished = c->in_flight == 0 && c->ready.empty();
      if (finished && (c->closing || c->peer_eof)) {
        CloseConn(c);
        return false;
      }
    } else if (!c->want_write) {
      c->want_write = true;
      poller.Update(c->fd, true);
    }
    return true;
  }

  void SweepIdle(double now_s) {
    const double limit_s = opts.idle_timeout_ms / 1e3;
    std::vector<Connection*> victims;
    for (const auto& [fd, c] : conns) {
      // Keep-alive connections idling between complete frames are fine,
      // and in-flight predictions are the server's own latency, not the
      // client's; only stalled partial input (slow loris) or a stalled
      // response flush (unread backlog) count as suspect.
      const bool suspect = c->decoder.buffered_bytes() > 0 || !c->flushed();
      if (suspect && now_s - c->last_progress_s > limit_s) {
        victims.push_back(c.get());
      }
    }
    for (Connection* c : victims) {
      m_proto_err->Inc();
      CloseConn(c);
    }
  }

  void CloseConn(Connection* c) {
    poller.Remove(c->fd);
    ::close(c->fd);
    conns_by_id.erase(c->id);
    conns.erase(c->fd);  // destroys *c
    m_closed->Inc();
    g_conns_open->Sub(1);
  }

  // --- workers ---------------------------------------------------------

  void WorkerLoop(WorkerSlot* slot) {
    for (;;) {
      Request req;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [this] { return queue_closed || !queue.empty(); });
        if (queue.empty()) break;  // closed and drained
        req = std::move(queue.front());
        queue.pop_front();
        g_queue_depth->Set(static_cast<std::int64_t>(queue.size()));
      }
      // Heartbeat: busy from here until the completion is pushed. The
      // watchdog's stall clock starts now, so both chaos sites below
      // ("server.worker.delay" and the engine's "engine.predict.stall")
      // count as worker occupancy.
      slot->busy_since_s.store(clock.ElapsedSeconds(),
                               std::memory_order_relaxed);
      // Chaos site: delay(ms) here stretches worker occupancy without
      // touching the engine — how the overload battery fills the queue.
      GBX_FAILPOINT("server.worker.delay");
      Completion comp{req.conn_id, req.seq, HandleRequest(req)};
      {
        std::lock_guard<std::mutex> lock(comp_mu);
        completions.push_back(std::move(comp));
      }
      Wake();
      const double prev =
          slot->busy_since_s.exchange(-1.0, std::memory_order_relaxed);
      if (prev == kStalledSlot) {
        // The watchdog flagged this worker mid-request and already
        // spawned a replacement: undo the stalled mark (the late
        // response WAS delivered) and exit — capacity lives in the
        // replacement now.
        workers_stalled.fetch_sub(1, std::memory_order_relaxed);
        g_workers_stalled->Sub(1);
        GBX_SLOG(kInfo, "server.worker.stall_recovered")
            .Kv("conn", static_cast<std::int64_t>(req.conn_id))
            .Kv("seq", static_cast<std::int64_t>(req.seq));
        return;
      }
    }
    workers_alive.fetch_sub(1, std::memory_order_relaxed);
    g_workers_alive->Sub(1);
  }

  std::string HandleRequest(const Request& req) {
    const std::string& payload = req.payload;
    if (!payload.empty() && payload[0] == '!') return HandleAdmin(payload);

    // Stage attribution: the request's trace origin is its *enqueue*
    // into the worker queue, so queue wait is span one and every stage
    // offset is relative to that instant. Span durations also feed the
    // gbx_server_stage_ms histograms.
    const double dequeue_s = clock.ElapsedSeconds();
    const double queue_wait_ms = std::max(0.0, (dequeue_s - req.enqueue_s) * 1e3);
    h_queue_wait->Observe(queue_wait_ms);
    trace::Trace tr(next_trace_id.fetch_add(1, std::memory_order_relaxed),
                    "predict");
    tr.AddSpan("queue_wait", 0.0, queue_wait_ms);
    Stopwatch server_watch;  // dequeue -> reply encoded
    double cursor_ms = queue_wait_ms;

    const auto finish = [&](std::string reply, bool ok) {
      const double total_ms = queue_wait_ms + server_watch.ElapsedMillis();
      (ok ? m_req_ok : m_req_error)->Inc();
      h_request->Observe(total_ms);
      tr.Finish(total_ms);
      trace::TraceRing::Default().Record(std::move(tr));
      return reply;
    };

    std::string name;
    double timeout_ms = 0.0;
    std::vector<double> query;
    Stopwatch decode_watch;
    const Status parsed =
        ParsePredictPayload(payload, &name, &timeout_ms, &query);
    const double decode_ms = decode_watch.ElapsedMillis();
    h_decode->Observe(decode_ms);
    tr.AddSpan("decode", cursor_ms, decode_ms);
    cursor_ms += decode_ms;
    if (!parsed.ok()) {
      m_proto_err->Inc();
      return finish(ErrorPayload(parsed), false);
    }
    if (timeout_ms > 0.0) {
      // Deadline check at dequeue: if the client's budget was burned
      // waiting in queue, don't burn a worker predicting into the void.
      const double waited_ms = (dequeue_s - req.enqueue_s) * 1e3;
      if (waited_ms > timeout_ms) {
        m_deadline->Inc();
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "deadline of %g ms expired after %.1f ms in queue",
                      timeout_ms, waited_ms);
        tr.Annotate(0, "deadline_expired");
        return finish(ErrorPayload(Status::DeadlineExceeded(msg)), false);
      }
    }
    if (name.empty()) name = opts.default_model;
    tr.Annotate(0, "model=" + name);
    // One snapshot pins one model version for the whole request — the
    // hot-swap consistency point.
    const std::shared_ptr<const ServedModel> snapshot = registry->Get(name);
    if (snapshot == nullptr) {
      return finish(
          ErrorPayload(Status::NotFound("no model named '" + name + "'")),
          false);
    }
    PredictTiming timing;
    const StatusOr<int> label = snapshot->engine->Predict(
        query.data(), static_cast<int>(query.size()), &timing);
    h_batch_assembly->Observe(timing.batch_assembly_ms);
    h_compute->Observe(timing.compute_ms);
    tr.AddSpan("batch_assembly", cursor_ms, timing.batch_assembly_ms, 0,
               "batch=" + std::to_string(timing.batch_size));
    cursor_ms += timing.batch_assembly_ms;
    tr.AddSpan("compute", cursor_ms, timing.compute_ms);
    if (!label.ok()) return finish(ErrorPayload(label.status()), false);
    // Encode starts once Predict returns (assembly + compute + wakeup).
    cursor_ms = queue_wait_ms + server_watch.ElapsedMillis();
    Stopwatch encode_watch;
    std::string reply = "ok " + std::to_string(*label) + " fnv1a " +
                        ChecksumHex(snapshot->checksum);
    const double encode_ms = encode_watch.ElapsedMillis();
    h_encode->Observe(encode_ms);
    tr.AddSpan("encode", cursor_ms, encode_ms);
    return finish(std::move(reply), true);
  }

  std::string HandleAdmin(const std::string& payload) {
    std::istringstream in(payload);
    std::string cmd;
    in >> cmd;
    if (cmd == "!ping") return "ok pong";
    if (cmd == "!health") {
      // Liveness/readiness probe for load balancers. Answering at all
      // is liveness (admin frames bypass the shed caps, and watchdog
      // replacements keep a worker available to serve this even while
      // another is stuck). Readiness means the server can take predict
      // traffic NOW: a routable model, no stalled worker, at least one
      // healthy worker, and the queue below the shed line. Format:
      //   ok health ready|unready [reasons R1,R2] models N workers A
      //   stalled S queue D/LINE
      std::size_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        depth = queue.size();
      }
      const int alive = workers_alive.load(std::memory_order_relaxed);
      const int stalled = workers_stalled.load(std::memory_order_relaxed);
      const int models = registry->size();
      std::vector<const char*> reasons;
      if (!registry->ready()) reasons.push_back("no-models");
      if (stalled > 0) reasons.push_back("workers-stalled");
      if (alive < 1) reasons.push_back("no-workers");
      if (opts.max_queue_depth > 0 && depth >= opts.max_queue_depth) {
        reasons.push_back("queue-full");
      }
      std::ostringstream out;
      out << "ok health " << (reasons.empty() ? "ready" : "unready");
      if (!reasons.empty()) {
        out << " reasons ";
        for (std::size_t i = 0; i < reasons.size(); ++i) {
          out << (i > 0 ? "," : "") << reasons[i];
        }
      }
      out << " models " << models << " workers " << alive << " stalled "
          << stalled << " queue " << depth << "/" << opts.max_queue_depth;
      return out.str();
    }
    if (cmd == "!list") {
      std::ostringstream out;
      const auto models = registry->List();
      out << "ok models " << models.size();
      for (const auto& m : models) {
        const LoadedModel& lm = m->engine->model();
        out << "\n"
            << m->name << " v" << m->version << " fnv1a "
            << ChecksumHex(m->checksum) << " " << lm.kind << " dims "
            << lm.dims << " classes " << lm.num_classes;
      }
      return out.str();
    }
    if (cmd == "!stat") {
      std::string name;
      in >> name;
      if (name.empty()) name = opts.default_model;
      const auto snapshot = registry->Get(name);
      if (snapshot == nullptr) {
        return ErrorPayload(Status::NotFound("no model named '" + name + "'"));
      }
      // Every count is a process-wide registry series, the number
      // "!metrics" shows: summed over all models and never reset by a
      // swap. The engine families exist once any engine does, and
      // `snapshot` holds one.
      auto& reg = metrics::MetricsRegistry::Default();
      const std::int64_t requests =
          reg.GetCounter("gbx_engine_requests_total")->Value();
      const std::int64_t batches =
          reg.GetCounter("gbx_engine_batches_total")->Value();
      const metrics::HistogramSnapshot latency =
          reg.GetHistogram("gbx_engine_request_ms")->Snapshot();
      std::ostringstream out;
      out << "ok stats " << name << " v" << snapshot->version << " requests "
          << requests << " batches " << batches << " mean_batch "
          << (batches > 0 ? static_cast<double>(requests) / batches : 0.0)
          << " p50_ms " << latency.Quantile(0.50) << " p99_ms "
          << latency.Quantile(0.99) << " shed " << m_shed->Value()
          << " deadline_expired " << m_deadline->Value() << " queue_depth "
          << g_queue_depth->Value() << " queue_peak " << g_queue_peak->Value()
          << " worker_stalls " << m_worker_stalls->Value();
      // Scan configuration: the SIMD dispatch level is process-global;
      // the strategy is a per-model runtime knob (GB-kNN only — other
      // classifiers have no center scan and report nothing).
      out << " simd " << simd::ActiveName();
      if (const auto* gbknn = dynamic_cast<const GbKnnClassifier*>(
              snapshot->engine->model().classifier.get())) {
        out << " strategy "
            << IndexStrategyName(gbknn->resolved_index_strategy());
      }
      return out.str();
    }
    if (cmd == "!metrics") {
      // Registry exposition. First line is "ok metrics FORMAT"; the
      // scrape body follows verbatim from the second line on.
      std::string fmt;
      in >> fmt;
      if (fmt.empty()) fmt = "prom";
      auto& reg = metrics::MetricsRegistry::Default();
      if (fmt == "prom") return "ok metrics prom\n" + reg.PrometheusText();
      if (fmt == "json") return "ok metrics json\n" + reg.JsonText();
      return ErrorPayload(
          Status::InvalidArgument("usage: !metrics [prom|json]"));
    }
    if (cmd == "!trace") {
      std::string which;
      in >> which;
      std::size_t n = 8;
      if (std::size_t arg = 0; in >> arg) n = std::max<std::size_t>(1, arg);
      auto& ring = trace::TraceRing::Default();
      std::vector<trace::Trace> traces;
      if (which == "last") {
        traces = ring.Recent(n);
      } else if (which == "slow") {
        traces = ring.Slow(n);
      } else {
        return ErrorPayload(
            Status::InvalidArgument("usage: !trace last|slow [N]"));
      }
      std::ostringstream out;
      out << "ok traces " << traces.size();
      for (const trace::Trace& t : traces) {
        out << "\n" << FormatTrace(t);
      }
      return out.str();
    }
    if (cmd == "!fail") {
      // Fault injection shares the !swap trust boundary: both let the
      // network break the serving process on purpose.
      if (!opts.allow_admin_swap) {
        return ErrorPayload(Status::FailedPrecondition(
            "admin fault injection is disabled on this server"));
      }
      std::string sub;
      in >> sub;
      if (sub == "list") {
        const auto infos = Failpoints::Instance().List();
        std::ostringstream out;
        out << "ok failpoints " << infos.size()
            << (Failpoints::kCompiledIn ? "" : " (sites compiled out)");
        for (const auto& i : infos) {
          out << "\n"
              << i.name << "=" << i.spec << " evals " << i.evals << " hits "
              << i.hits;
        }
        return out.str();
      }
      if (sub == "set") {
        std::string arg;
        in >> arg;
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
          return ErrorPayload(
              Status::InvalidArgument("usage: !fail set NAME=SPEC"));
        }
        if (!Failpoints::kCompiledIn) {
          return ErrorPayload(Status::FailedPrecondition(
              "failpoint sites are compiled out of this build "
              "(rebuild with -DGBX_FAILPOINTS=ON)"));
        }
        const Status set =
            Failpoints::Instance().Set(arg.substr(0, eq), arg.substr(eq + 1));
        if (!set.ok()) return ErrorPayload(set);
        return "ok failpoint " + arg;
      }
      if (sub == "clear") {
        std::string name;
        in >> name;
        if (name.empty()) {
          return ErrorPayload(
              Status::InvalidArgument("usage: !fail clear NAME|*"));
        }
        if (name == "*") {
          Failpoints::Instance().ClearAll();
          return "ok failpoints cleared";
        }
        const Status cleared = Failpoints::Instance().Clear(name);
        if (!cleared.ok()) return ErrorPayload(cleared);
        return "ok failpoint " + name + "=off";
      }
      return ErrorPayload(Status::InvalidArgument(
          "usage: !fail set NAME=SPEC | !fail clear NAME|* | !fail list"));
    }
    if (cmd == "!swap") {
      if (!opts.allow_admin_swap) {
        return ErrorPayload(Status::FailedPrecondition(
            "admin swap is disabled on this server"));
      }
      std::string name, path;
      in >> name >> path;
      if (name.empty() || path.empty()) {
        return ErrorPayload(
            Status::InvalidArgument("usage: !swap NAME PATH"));
      }
      StatusOr<LoadedModel> model = LoadModel(path);
      if (!model.ok()) return ErrorPayload(model.status());
      StatusOr<std::shared_ptr<const ServedModel>> published =
          registry->Publish(name, std::move(model).value());
      if (!published.ok()) return ErrorPayload(published.status());
      return "ok swapped " + name + " v" +
             std::to_string((*published)->version) + " fnv1a " +
             ChecksumHex((*published)->checksum);
    }
    return ErrorPayload(
        Status::InvalidArgument("unknown admin command '" + cmd + "'"));
  }
};

Server::Server(std::shared_ptr<ModelRegistry> registry, ServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  GBX_CHECK_MSG(registry != nullptr, "Server needs a ModelRegistry");
  impl_->registry = std::move(registry);
  impl_->opts = std::move(options);
}

Server::~Server() { Stop(); }

Status Server::Start() { return impl_->Start(); }
void Server::Stop() { impl_->Stop(); }
bool Server::running() const { return impl_->running.load(); }
int Server::port() const { return impl_->bound_port; }
ModelRegistry& Server::registry() { return *impl_->registry; }

}  // namespace gbx
