#include "client.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "bench.h"

namespace gbxbench {
namespace {

constexpr const char kHealth[] = "!health";
constexpr const char kScrape[] = "!metrics json";

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

timespec ToTimespec(double seconds) {
  if (seconds < 0) seconds = 0;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - ts.tv_sec) * 1e9);
  return ts;
}

}  // namespace

LoadClient::LoadClient(ServingTarget target, int predict_conns)
    : target_(std::move(target)), conns_(predict_conns + 1) {}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) Close(&c);
}

bool LoadClient::Open(Conn* c, std::string* error) {
  gbx::StatusOr<int> fd = gbx::ConnectTcp("127.0.0.1", target_.port);
  if (!fd.ok()) {
    *error = fd.status().ToString();
    return false;
  }
  c->fd = *fd;
  const int one = 1;
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL, 0) | O_NONBLOCK);
  c->out.clear();
  c->out_off = 0;
  c->decoder = gbx::FrameDecoder();
  c->pending.clear();
  return true;
}

void LoadClient::Close(Conn* c) {
  if (c->fd >= 0) ::close(c->fd);
  c->fd = -1;
}

bool LoadClient::Connect(std::string* error) {
  for (Conn& c : conns_) {
    if (!Open(&c, error)) return false;
  }
  return true;
}

bool LoadClient::Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

bool LoadClient::Drain(Conn* c, PhaseStats* stats) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c->decoder.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // orderly close or hard error
  }
  std::string payload, error;
  for (;;) {
    const gbx::FrameDecoder::Result r = c->decoder.Next(&payload, &error);
    if (r == gbx::FrameDecoder::Result::kNeedMore) return true;
    if (r == gbx::FrameDecoder::Result::kError || c->pending.empty()) {
      return false;
    }
    const Pending p = c->pending.front();
    c->pending.pop_front();
    HandleReply(p, payload, stats);
  }
}

void LoadClient::HandleReply(const Pending& p, const std::string& payload,
                             PhaseStats* stats) {
  const double ms = (NowS() - p.sched_s) * 1e3;
  switch (p.kind) {
    case Kind::kPredict: {
      // "ok LABEL fnv1a CHECKSUM16"
      int label = -1;
      char hex[17] = {0};
      if (std::sscanf(payload.c_str(), "ok %d fnv1a %16s", &label, hex) == 2) {
        if (label == (*target_.expected)[p.query] &&
            target_.checksum_hex == hex) {
          ++stats->ok;
          stats->latency_ms.push_back(ms);
          stats->last_ok_s = p.sched_s + ms / 1e3;
        } else {
          ++stats->wrong;
          ++stats->failed;
        }
      } else {
        if (StartsWith(payload, "error UNAVAILABLE")) ++stats->shed;
        ++stats->failed;
      }
      return;
    }
    case Kind::kHealth:
      if (StartsWith(payload, "ok health")) {
        ++stats->admin_ok;
        stats->health_ms.push_back(ms);
      } else {
        ++stats->admin_failed;
      }
      return;
    case Kind::kScrape:
      if (StartsWith(payload, "ok metrics json")) {
        ++stats->admin_ok;
      } else {
        ++stats->admin_failed;
      }
      return;
    case Kind::kProbe:
      if (StartsWith(payload, "ok")) {
        ++stats->admin_ok;
      } else {
        ++stats->admin_failed;
      }
      return;
  }
}

PhaseStats LoadClient::Run(const std::string& name, double rate,
                           double seconds, double health_rate,
                           double scrape_rate, double drain_s) {
  PhaseStats st;
  st.name = name;
  st.rate_qps = rate;
  st.seconds = seconds;
  const int np = static_cast<int>(conns_.size()) - 1;
  Conn& admin = conns_.back();
  const std::int64_t n_pred = std::llround(rate * seconds);
  const std::int64_t n_health = std::llround(health_rate * seconds);
  const std::int64_t n_scrape = std::llround(scrape_rate * seconds);
  const std::string health_frame = gbx::EncodeFrame(kHealth);
  const std::string scrape_frame = gbx::EncodeFrame(kScrape);
  const std::size_t nq = target_.frames->size();

  const double t0 = NowS() + 1e-3;
  st.first_sched_s = t0;
  const double deadline = t0 + seconds + drain_s;
  std::int64_t i = 0, h = 0, s = 0;
  bool broken = false;
  std::vector<pollfd> fds(conns_.size());

  auto due = [&](std::int64_t k, double r) { return t0 + k / r; };
  auto outstanding = [&] {
    std::int64_t n = 0;
    for (const Conn& c : conns_) n += static_cast<std::int64_t>(c.pending.size());
    return n;
  };

  for (;;) {
    const double now = NowS();
    while (i < n_pred && due(i, rate) <= now) {
      const double sched = due(i, rate);
      Conn& c = conns_[i % np];
      const int q = static_cast<int>(query_cursor_++ % nq);
      c.out += (*target_.frames)[q];
      c.pending.push_back({Kind::kPredict, q, sched});
      st.late_ms.push_back((now - sched) * 1e3);
      ++i;
    }
    while (h < n_health && due(h, health_rate) <= now) {
      admin.out += health_frame;
      admin.pending.push_back({Kind::kHealth, -1, due(h, health_rate)});
      ++h;
    }
    while (s < n_scrape && due(s, scrape_rate) <= now) {
      admin.out += scrape_frame;
      admin.pending.push_back({Kind::kScrape, -1, due(s, scrape_rate)});
      ++s;
    }
    for (Conn& c : conns_) {
      if (!Flush(&c)) broken = true;
    }
    const bool all_sent = i == n_pred && h == n_health && s == n_scrape;
    if (broken || (all_sent && outstanding() == 0) ||
        (all_sent && now >= deadline)) {
      break;
    }

    double next = all_sent ? deadline : 1e300;
    if (i < n_pred) next = std::min(next, due(i, rate));
    if (h < n_health) next = std::min(next, due(h, health_rate));
    if (s < n_scrape) next = std::min(next, due(s, scrape_rate));
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      fds[k].fd = conns_[k].fd;
      fds[k].events = POLLIN;
      if (conns_[k].out_off < conns_[k].out.size()) fds[k].events |= POLLOUT;
      fds[k].revents = 0;
    }
    const timespec ts = ToTimespec(std::min(next - NowS(), 0.05));
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) break;
    for (std::size_t k = 0; rc > 0 && k < conns_.size(); ++k) {
      if (fds[k].revents & (POLLIN | POLLERR | POLLHUP)) {
        if (!Drain(&conns_[k], &st)) broken = true;
      }
    }
  }
  st.sent = i;
  st.admin_sent = h + s;
  FailPending(broken, &st);
  return st;
}

void LoadClient::FailPending(bool broken, PhaseStats* stats) {
  for (Conn& c : conns_) {
    if (c.pending.empty() && !broken) continue;
    for (const Pending& p : c.pending) {
      if (p.kind == Kind::kPredict) {
        ++stats->failed;
      } else {
        ++stats->admin_failed;
      }
    }
    Close(&c);
    std::string error;
    Open(&c, &error);
  }
}

PhaseStats LoadClient::RunClosed(const std::string& name, double seconds,
                                 int window, double drain_s) {
  PhaseStats st;
  st.name = name;
  st.seconds = seconds;
  const int np = static_cast<int>(conns_.size()) - 1;
  const std::size_t nq = target_.frames->size();
  const double t0 = NowS();
  st.first_sched_s = t0;
  const double end = t0 + seconds;
  const double deadline = end + drain_s;
  std::vector<pollfd> fds(np);
  bool broken = false;
  for (;;) {
    const double now = NowS();
    std::size_t outstanding = 0;
    for (int k = 0; k < np; ++k) {
      Conn& c = conns_[k];
      while (now < end && c.pending.size() < static_cast<std::size_t>(window)) {
        const int q = static_cast<int>(query_cursor_++ % nq);
        c.out += (*target_.frames)[q];
        c.pending.push_back({Kind::kPredict, q, now});
        ++st.sent;
      }
      if (!Flush(&c)) broken = true;
      outstanding += c.pending.size();
    }
    if (broken || (now >= end && outstanding == 0) || now >= deadline) break;
    for (int k = 0; k < np; ++k) {
      fds[k].fd = conns_[k].fd;
      fds[k].events = POLLIN;
      if (conns_[k].out_off < conns_[k].out.size()) fds[k].events |= POLLOUT;
      fds[k].revents = 0;
    }
    const timespec ts = ToTimespec(0.05);
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) break;
    for (int k = 0; rc > 0 && k < np; ++k) {
      if (fds[k].revents & (POLLIN | POLLERR | POLLHUP)) {
        if (!Drain(&conns_[k], &st)) broken = true;
      }
    }
  }
  st.rate_qps = st.achieved_qps();
  FailPending(broken, &st);
  return st;
}

double LoadClient::AdminRoundTripUs(const std::string& payload, int n) {
  Conn& admin = conns_.back();
  PhaseStats sink;
  std::vector<double> us;
  us.reserve(n);
  for (int k = 0; k < n; ++k) {
    const double t = NowS();
    admin.out += gbx::EncodeFrame(payload);
    admin.pending.push_back({Kind::kProbe, -1, t});
    if (!Flush(&admin)) return std::nan("");
    while (!admin.pending.empty()) {
      pollfd pfd{admin.fd, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) return std::nan("");
      if (!Drain(&admin, &sink)) return std::nan("");
    }
    us.push_back((NowS() - t) * 1e6);
  }
  return sink.admin_failed == 0 ? Median(std::move(us)) : std::nan("");
}

}  // namespace gbxbench
