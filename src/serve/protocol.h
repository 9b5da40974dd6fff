// gbx-wire v1: the length-prefixed request protocol of the network
// serving front-end (serve/server.h). One frame is
//
//   [4-byte big-endian payload length][payload bytes]
//
// with the payload a UTF-8 text line. Request payloads reuse the
// gbx_serve stdin predict wire format:
//
//   predict   "[@MODEL ][timeout_ms=T ]F1[,F2 ...]"
//             comma/space/tab-separated features, optionally prefixed
//             with "@MODEL" to route the query to a named ModelRegistry
//             entry (no prefix = the server's default model) and/or a
//             "timeout_ms=T" deadline: if the server cannot start the
//             prediction within T ms of receiving the frame it answers
//             "error DEADLINE_EXCEEDED: ..." instead of serving a
//             result the client has already given up on.
//   admin     "!ping"                   liveness probe -> "ok pong"
//             "!list"                   registry contents
//             "!stat NAME"              "ok stats NAME vN requests R
//                                       batches B mean_batch M p50_ms P
//                                       p99_ms Q shed S deadline_expired
//                                       D queue_depth QD queue_peak QP
//                                       worker_stalls W simd L
//                                       [strategy X]": NAME's version
//                                       and scan config; every count is
//                                       the process-wide registry series
//                                       "!metrics" shows (all models, not
//                                       reset by a swap); NOT_FOUND for
//                                       an unknown NAME
//             "!swap NAME PATH"         load the artifact at PATH and
//                                       atomically publish it as NAME
//                                       (the hot-swap control path)
//             "!fail set NAME=SPEC"     arm a failpoint (common/
//             "!fail clear NAME|*"      failpoint.h) in the serving
//             "!fail list"              process; FAILED_PRECONDITION
//                                       when sites are compiled out
//             "!metrics [prom|json]"    scrape the process metrics
//                                       registry (common/metrics.h) ->
//                                       "ok metrics FORMAT" on line 1,
//                                       exposition body from line 2
//             "!trace last|slow [N]"    the N most recent / slowest
//                                       request span trees (common/
//                                       trace.h) -> "ok traces N" then
//                                       one formatted tree per trace
//             "!health"                 readiness probe for load
//                                       balancers -> "ok health
//                                       ready|unready [reasons R1,R2]
//                                       models N workers A stalled S
//                                       queue D/CAP". Ready iff the
//                                       registry serves >= 1 model,
//                                       every worker is alive, and the
//                                       queue is below the shed line;
//                                       unready lists machine-readable
//                                       reasons (no-models,
//                                       workers-stalled, no-workers,
//                                       queue-full). Always "ok", so a
//                                       probe distinguishes "unready"
//                                       from "down".
//
// Response payloads are one frame per request, in request order per
// connection:
//
//   "ok LABEL fnv1a CHECKSUM16"         prediction, tagged with the
//                                       serving artifact's checksum so a
//                                       client can pin which model
//                                       version answered (hot-swap
//                                       consistency; tests/hot_swap_test)
//   "ok ..."                            admin success
//   "error CODE: message"               structured error; the connection
//                                       stays open for payload-level
//                                       errors. Framing-level errors
//                                       (zero or oversized declared
//                                       length) poison the byte stream,
//                                       so the server answers the error
//                                       frame and then closes.
//                                       Notable CODEs under fault:
//                                       UNAVAILABLE ("overloaded ...")
//                                       when a bounded request queue
//                                       sheds the request — resend with
//                                       backoff; DEADLINE_EXCEEDED when
//                                       a timeout_ms deadline expired
//                                       in queue; DATA_LOSS when !swap
//                                       hit a corrupt artifact.
//
// Numbers in a predict payload (common/num_text.h). A feature is a
// decimal token as `std::istream >> double` reads it:
//
//   [+-] digits [. digits] [(e|E) [+-] digits]
//
// Hex floats, "inf" and "nan" are rejected, an overflowing exponent
// ("1e999") is rejected, and an underflow reads as the nearest double.
// Commas and whitespace separate features, and none is needed between
// two tokens ("0.5-3" is two features). The parse is one linear pass
// over the payload and copies none of it, so a client cannot make the
// server spend more than time proportional to the bytes it sent. The
// "timeout_ms=T" field is read with strtod (it also takes "inf" and hex).
//
// FormatPredictPayload writes every feature as the exact bytes of
// printf("%.17g"): 17 significant digits read back bit-identical, so a
// socket prediction equals the in-process one. Shortest round-trip
// output would be lossless too, but it would change the bytes of every
// query file and, through the same codec, of every model artifact and
// its checksum (serve/model_io.h), so the %.17g bytes are fixed.
//
// A declared length of 0 or more than `max_frame_bytes` is a framing
// error: the stream cannot be resynchronized, so FrameDecoder reports it
// sticky (every later Next() fails too).
#ifndef GBX_SERVE_PROTOCOL_H_
#define GBX_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gbx {

/// Bytes in the length prefix.
inline constexpr int kFrameHeaderBytes = 4;
/// Default cap on a declared payload length (1 MiB). A predict query is
/// tens of bytes; the cap only exists to bound a malicious header.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 20;

/// Appends one length-prefixed frame carrying `payload` to `*out`.
void AppendFrame(std::string_view payload, std::string* out);
std::string EncodeFrame(std::string_view payload);

/// Incremental frame decoder over a received byte stream. Feed() bytes
/// as they arrive; Next() pops complete frames.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const char* data, std::size_t n);

  enum class Result {
    kFrame,     // *payload holds the next complete frame
    kNeedMore,  // a partial header/frame is buffered; feed more bytes
    kError,     // framing is unrecoverable; *error says why (sticky)
  };
  Result Next(std::string* payload, std::string* error);

  /// Bytes buffered but not yet consumed as a complete frame (> 0 means
  /// a partial header or partial frame is pending — the slow-loris
  /// signal the server's idle sweep keys on).
  std::size_t buffered_bytes() const { return buffer_.size() - pos_; }
  bool failed() const { return failed_; }

 private:
  std::uint32_t max_frame_bytes_;
  std::string buffer_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// Parses a predict payload: an optional "@MODEL" first token, an
/// optional "timeout_ms=T" token (T a positive number of milliseconds),
/// then the stdin predict line format (comma- or blank-separated
/// doubles, grammar above). `*model` is empty when no "@" prefix was present;
/// `*timeout_ms` is 0 when no deadline was requested (pass nullptr to
/// accept-and-ignore the token). Rejects payloads with no features,
/// trailing garbage, or a malformed prefix.
Status ParsePredictPayload(std::string_view payload, std::string* model,
                           double* timeout_ms, std::vector<double>* query);
inline Status ParsePredictPayload(std::string_view payload,
                                  std::string* model,
                                  std::vector<double>* query) {
  return ParsePredictPayload(payload, model, nullptr, query);
}

/// Formats one predict payload ("@model timeout_ms=T f1,f2,..."), the
/// bytes of %.17g per feature so queries round-trip doubles losslessly —
/// socket predictions stay bit-identical to the in-process path. Empty
/// `model` omits the prefix; `timeout_ms <= 0` omits the deadline field.
std::string FormatPredictPayload(std::string_view model, const double* x,
                                 int dims, double timeout_ms = 0.0);

// --- blocking client-side helpers (gbx_loadgen, test batteries) ---
// The server itself is nonblocking; these wrap a connected socket fd.

/// Opens a blocking TCP connection to host:port with `timeout_s` applied
/// to connect, reads, and writes. Returns the connected fd.
StatusOr<int> ConnectTcp(const std::string& host, int port,
                         double timeout_s = 10.0);

/// Writes one frame, handling partial writes.
Status SendFrame(int fd, std::string_view payload);

/// Reads one complete frame payload. EOF at a frame boundary and EOF
/// mid-frame both return an error Status (distinct messages).
StatusOr<std::string> RecvFrame(
    int fd, std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace gbx

#endif  // GBX_SERVE_PROTOCOL_H_
