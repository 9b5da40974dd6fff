#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/num_text.h"

namespace gbx {

namespace {

std::uint32_t DecodeLength(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) << 24 |
         static_cast<std::uint32_t>(u[1]) << 16 |
         static_cast<std::uint32_t>(u[2]) << 8 | static_cast<std::uint32_t>(u[3]);
}

}  // namespace

void AppendFrame(std::string_view payload, std::string* out) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  const char header[kFrameHeaderBytes] = {
      static_cast<char>(n >> 24), static_cast<char>(n >> 16),
      static_cast<char>(n >> 8), static_cast<char>(n)};
  out->append(header, kFrameHeaderBytes);
  out->append(payload);
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(payload, &out);
  return out;
}

void FrameDecoder::Feed(const char* data, std::size_t n) {
  buffer_.append(data, n);
}

FrameDecoder::Result FrameDecoder::Next(std::string* payload,
                                        std::string* error) {
  if (failed_) {
    *error = error_;
    return Result::kError;
  }
  if (buffer_.size() - pos_ < kFrameHeaderBytes) {
    // Reclaim consumed bytes while waiting; cheap because the pending
    // remainder is at most 3 header bytes.
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    return Result::kNeedMore;
  }
  const std::uint32_t length = DecodeLength(buffer_.data() + pos_);
  if (length == 0) {
    failed_ = true;
    error_ = "zero-length frame";
    *error = error_;
    return Result::kError;
  }
  if (length > max_frame_bytes_) {
    failed_ = true;
    error_ = "declared frame length " + std::to_string(length) +
             " exceeds the " + std::to_string(max_frame_bytes_) +
             "-byte limit";
    *error = error_;
    return Result::kError;
  }
  if (buffer_.size() - pos_ - kFrameHeaderBytes < length) {
    return Result::kNeedMore;
  }
  payload->assign(buffer_, pos_ + kFrameHeaderBytes, length);
  pos_ += kFrameHeaderBytes + length;
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return Result::kFrame;
}

Status ParsePredictPayload(std::string_view payload, std::string* model,
                           double* timeout_ms, std::vector<double>* query) {
  model->clear();
  if (timeout_ms != nullptr) *timeout_ms = 0.0;
  query->clear();
  std::string_view line = payload;
  if (!line.empty() && line[0] == '@') {
    const std::size_t sep = line.find_first_of(" \t,");
    if (sep == std::string_view::npos || sep == 1) {
      return Status::InvalidArgument(
          "malformed @model prefix (want '@name <features>')");
    }
    model->assign(line.substr(1, sep - 1));
    line.remove_prefix(sep + 1);
  }
  constexpr std::string_view kTimeoutKey = "timeout_ms=";
  line.remove_prefix(std::min(line.find_first_not_of(" \t"), line.size()));
  if (line.starts_with(kTimeoutKey)) {
    const std::size_t sep = line.find_first_of(" \t,", kTimeoutKey.size());
    // The deadline keeps its strtod grammar (which also takes "inf" and
    // hex), so it parses from a copy of just this field.
    const std::string value(line.substr(
        kTimeoutKey.size(), sep == std::string_view::npos
                                ? std::string_view::npos
                                : sep - kTimeoutKey.size()));
    char* end = nullptr;
    errno = 0;
    const double t = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0' || errno != 0 ||
        !(t > 0.0)) {
      return Status::InvalidArgument(
          "malformed timeout_ms field '" + value +
          "' (want a positive number of milliseconds)");
    }
    if (timeout_ms != nullptr) *timeout_ms = t;
    if (sep == std::string_view::npos) {
      return Status::InvalidArgument("query payload has no features");
    }
    line.remove_prefix(sep + 1);
  }
  NumScanner fields(line, NumScanner::kCommaIsBlank);
  double v = 0.0;
  while (fields.ReadDouble(&v)) query->push_back(v);
  if (!fields.AtEnd()) {
    return Status::InvalidArgument("unparseable query payload");
  }
  if (query->empty()) {
    return Status::InvalidArgument("query payload has no features");
  }
  return Status::Ok();
}

std::string FormatPredictPayload(std::string_view model, const double* x,
                                 int dims, double timeout_ms) {
  std::string out;
  out.reserve(model.size() + 40 + static_cast<std::size_t>(dims) * 25);
  if (!model.empty()) {
    out += '@';
    out += model;
    out += ' ';
  }
  if (timeout_ms > 0.0) {
    out += "timeout_ms=";
    AppendDouble(timeout_ms, &out);
    out += ' ';
  }
  for (int j = 0; j < dims; ++j) {
    if (j > 0) out += ',';
    AppendDouble(x[j], &out);
  }
  return out;
}

StatusOr<int> ConnectTcp(const std::string& host, int port,
                         double timeout_s) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 host '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = static_cast<long>(timeout_s);
  tv.tv_usec = static_cast<long>((timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EINTR) {
      // POSIX: an EINTR'd connect keeps completing asynchronously and
      // must NOT be retried (a second connect yields EALREADY/EISCONN
      // races). Wait for writability, then read the real outcome from
      // SO_ERROR.
      pollfd pfd{fd, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeout_s * 1e3));
      } while (rc < 0 && errno == EINTR);
      int so_error = rc == 1 ? 0 : ETIMEDOUT;
      socklen_t len = sizeof(so_error);
      if (rc == 1) ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      if (so_error != 0) {
        ::close(fd);
        return Status::Internal("connect " + host + ":" +
                                std::to_string(port) + ": " +
                                std::strerror(so_error));
      }
      return fd;
    }
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("connect " + host + ":" + std::to_string(port) +
                            ": " + err);
  }
  return fd;
}

Status SendFrame(int fd, std::string_view payload) {
  const std::string frame = EncodeFrame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
  }
  return Status::Ok();
}

namespace {

/// Reads exactly `n` bytes. `*eof_clean` is true when EOF arrived before
/// the first byte (a frame-boundary close, not a truncation).
Status RecvExactly(int fd, char* out, std::size_t n, bool* eof_clean) {
  *eof_clean = false;
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
    } else if (r == 0) {
      *eof_clean = got == 0;
      return Status::Internal(got == 0 ? "connection closed"
                                       : "connection closed mid-frame");
    } else if (errno == EINTR) {
      continue;
    } else {
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::string> RecvFrame(int fd, std::uint32_t max_frame_bytes) {
  char header[kFrameHeaderBytes];
  bool eof_clean = false;
  GBX_RETURN_IF_ERROR(RecvExactly(fd, header, sizeof(header), &eof_clean));
  const std::uint32_t length = DecodeLength(header);
  if (length == 0 || length > max_frame_bytes) {
    return Status::InvalidArgument("bad response frame length " +
                                   std::to_string(length));
  }
  std::string payload(length, '\0');
  GBX_RETURN_IF_ERROR(RecvExactly(fd, payload.data(), length, &eof_clean));
  return payload;
}

}  // namespace gbx
