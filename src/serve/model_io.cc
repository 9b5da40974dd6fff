#include "serve/model_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/num_text.h"
#include "core/gb_io.h"

namespace gbx {

namespace {

// Artifact I/O metrics: save/load durations plus failures broken down
// by op and status code (gbx_model_io_* families). The per-code
// counters are registered lazily — failures are rare, so the registry
// lock on that path costs nothing that matters.
metrics::Histogram* SaveMsHistogram() {
  static metrics::Histogram* h = metrics::MetricsRegistry::Default().GetHistogram(
      "gbx_model_io_save_ms", {}, "SaveModel duration (ms)");
  return h;
}

metrics::Histogram* LoadMsHistogram() {
  static metrics::Histogram* h = metrics::MetricsRegistry::Default().GetHistogram(
      "gbx_model_io_load_ms", {}, "LoadModel duration (ms)");
  return h;
}

void RecordIoFailure(const char* op, const Status& status) {
  metrics::MetricsRegistry::Default()
      .GetCounter("gbx_model_io_errors_total",
                  {{"op", op}, {"code", StatusCodeName(status.code())}},
                  "Model artifact I/O failures by op and status code")
      ->Inc();
  GBX_SLOG(kWarn, "model_io.failed")
      .Kv("op", op)
      .Kv("error", status.ToString());
}

constexpr char kMagic[] = "gbx-model v1";
constexpr char kChecksumPrefix[] = "checksum fnv1a ";

/// Appends the trailer line: the FNV-1a 64 of every byte before it, as
/// 16 lowercase hex digits.
void AppendChecksumLine(std::string* text) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, Fnv1a64(*text));
  *text += kChecksumPrefix;
  *text += hex;
  *text += '\n';
}

void AppendVector(const std::vector<double>& v, std::string* out) {
  for (std::size_t j = 0; j < v.size(); ++j) {
    if (j > 0) *out += ' ';
    AppendDouble(v[j], out);
  }
  *out += '\n';
}

Status ErrnoStatus(const std::string& what) {
  const int err = errno;
  const std::string msg = what + ": " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) return Status::ResourceExhausted(msg);
  if (err == ENOENT) return Status::NotFound(msg);
  return Status::Internal(msg);
}

/// write(2) the whole buffer with EINTR retry. Honors the
/// "model_io.save.write" failpoint: `error` fails as ENOSPC after zero
/// bytes; `partial_write(N)` persists exactly the first N bytes of the
/// remaining buffer, then fails as ENOSPC — the torn-write fault the
/// atomic rename must mask.
Status WriteAll(int fd, const char* data, std::size_t size,
                const std::string& path) {
  const FailpointHit fault = GBX_FAILPOINT_EVAL("model_io.save.write");
  if (fault.partial_write()) {
    size = std::min(size, static_cast<std::size_t>(fault.arg));
  }
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + path);
    }
    written += static_cast<std::size_t>(n);
  }
  if (fault.fired()) {
    errno = ENOSPC;
    return ErrnoStatus("write " + path);
  }
  return Status::Ok();
}

/// Atomic, crash-safe artifact write: the full text goes to a
/// same-directory temp file, is fsync'd, and only then rename(2)'d over
/// `path`. A reader (or a crash-recovery restart) therefore sees either
/// the complete old artifact or the complete new one — never a torn
/// mix; on any failure the temp file is unlinked and the destination is
/// untouched. The parent directory is fsync'd after the rename so the
/// new name itself survives a power cut.
Status WriteFileAtomic(const std::string& text, const std::string& path) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  GBX_FAILPOINT_RETURN_ERROR("model_io.save.open");
  int fd = -1;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return ErrnoStatus("open " + tmp);

  auto fail = [&](Status status) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };

  const Status written = WriteAll(fd, text.data(), text.size(), tmp);
  if (!written.ok()) return fail(written);

  const FailpointHit fsync_fault = GBX_FAILPOINT_EVAL("model_io.save.fsync");
  if (fsync_fault.error() || ::fsync(fd) != 0) {
    if (fsync_fault.error()) errno = EIO;
    return fail(ErrnoStatus("fsync " + tmp));
  }
  if (::close(fd) != 0) {
    fd = -1;
    const Status status = ErrnoStatus("close " + tmp);
    ::unlink(tmp.c_str());
    return status;
  }
  fd = -1;

  // The mid-save kill point: the complete new bytes exist under the
  // temp name, the destination still holds the old artifact — exactly
  // the state tests/chaos_test.cc proves a restart recovers from.
  GBX_FAILPOINT("model_io.save.crash_before_rename");

  const FailpointHit rename_fault = GBX_FAILPOINT_EVAL("model_io.save.rename");
  if (rename_fault.error() || ::rename(tmp.c_str(), path.c_str()) != 0) {
    if (rename_fault.error()) errno = EIO;
    const Status status = ErrnoStatus("rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return status;
  }

  // Persist the directory entry; best-effort (some filesystems refuse
  // directory fsync), the data itself is already durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  int dir_fd = -1;
  do {
    dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (dir_fd < 0 && errno == EINTR);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::Ok();
}

/// Splits `text` into the checksum-covered body and verifies the final
/// checksum line. Returns a view of the body and sets `*checksum`.
// Checksum-envelope failures are kDataLoss: the artifact's delivery is
// damaged (truncated or bit-flipped in storage/transit). Parse failures
// *after* the checksum verifies are kInvalidArgument instead — the
// bytes arrived exactly as written, the format itself is wrong.
StatusOr<std::string_view> VerifyChecksum(std::string_view text,
                                          std::uint64_t* checksum) {
  const std::size_t pos = text.rfind(kChecksumPrefix);
  if (pos == std::string_view::npos) {
    return Status::DataLoss(
        "truncated artifact: missing checksum trailer line");
  }
  if (pos == 0 || text[pos - 1] != '\n') {
    return Status::DataLoss("corrupt artifact: checksum not at line start");
  }
  // Exactly 16 lowercase hex digits, parsed case-sensitively (istream
  // hex extraction would silently accept case-flipped digits).
  const std::size_t hex_begin = pos + sizeof(kChecksumPrefix) - 1;
  if (text.size() < hex_begin + 16) {
    return Status::DataLoss("truncated artifact: cut mid-checksum");
  }
  std::uint64_t stored = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = text[hex_begin + i];
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return Status::DataLoss("corrupt artifact: malformed checksum value");
    }
    stored = stored << 4 | static_cast<std::uint64_t>(digit);
  }
  for (std::size_t i = hex_begin + 16; i < text.size(); ++i) {
    if (!std::isspace(static_cast<unsigned char>(text[i]))) {
      return Status::DataLoss("corrupt artifact: trailing data after checksum");
    }
  }
  const std::string_view body = text.substr(0, pos);
  if (Fnv1a64(body) != stored) {
    return Status::DataLoss("corrupt artifact: checksum mismatch");
  }
  *checksum = stored;
  return body;
}

Status ReadFiniteVector(NumScanner& in, int n, const char* what,
                        std::vector<double>* out) {
  out->resize(n);
  for (int j = 0; j < n; ++j) {
    if (!in.ReadDouble(&(*out)[j])) {
      return Status::InvalidArgument(std::string("truncated ") + what);
    }
    if (!std::isfinite((*out)[j])) {
      return Status::InvalidArgument(std::string("non-finite value in ") +
                                     what);
    }
  }
  return Status::Ok();
}

StatusOr<LoadedModel> ParseGbKnn(NumScanner& in, std::string_view body,
                                 std::string_view config_line, int classes,
                                 int dims) {
  // The scaler section holds two dims-length vectors of >= 2 bytes per
  // value; reject headers promising more than the artifact holds before
  // allocating.
  if (static_cast<long long>(dims) * 4 > static_cast<long long>(body.size())) {
    return Status::InvalidArgument("header declares more data than input");
  }
  std::string_view tok, kind;
  if (!(in.ReadWord(&tok) && in.ReadWord(&kind)) || tok != "scaler" ||
      kind != "minmax") {
    return Status::InvalidArgument("expected 'scaler minmax' section");
  }
  std::vector<double> mins, maxs;
  GBX_RETURN_IF_ERROR(ReadFiniteVector(in, dims, "scaler mins", &mins));
  GBX_RETURN_IF_ERROR(ReadFiniteVector(in, dims, "scaler maxs", &maxs));
  for (int j = 0; j < dims; ++j) {
    if (mins[j] > maxs[j]) {
      return Status::InvalidArgument("scaler min exceeds max at feature " +
                                     std::to_string(j));
    }
  }

  if (!in.ReadWord(&tok) || tok != "balls") {
    return Status::InvalidArgument("expected 'balls' section");
  }
  // The remainder of the body (from the next line on) is an embedded
  // gbx-granular-balls document; hand it to the gb_io parser whole.
  const std::size_t eol = body.find('\n', in.pos());
  if (eol == std::string_view::npos) {
    return Status::InvalidArgument("truncated balls section");
  }
  StatusOr<GranularBallSet> balls =
      GranularBallsFromString(body.substr(eol + 1));
  if (!balls.ok()) {
    return Status(balls.status().code(),
                  "embedded ball set: " + balls.status().message());
  }
  if (balls->empty()) {
    return Status::InvalidArgument("gb-knn artifact has no balls");
  }
  if (balls->scaled_features().cols() != dims) {
    return Status::InvalidArgument("ball dims disagree with model dims");
  }
  if (balls->num_classes() != classes) {
    return Status::InvalidArgument("ball classes disagree with model classes");
  }

  int k = 0, rho = 0;
  std::uint64_t seed = 0;
  {
    NumScanner cfg(config_line);
    std::string_view c, kk, kr, ks;
    if (!(cfg.ReadWord(&c) && cfg.ReadWord(&kk) && cfg.ReadInt(&k) &&
          cfg.ReadWord(&kr) && cfg.ReadInt(&rho) && cfg.ReadWord(&ks) &&
          cfg.ReadUint64(&seed)) ||
        kk != "k" || kr != "rho" || ks != "seed" || k < 1 || rho < 1) {
      return Status::InvalidArgument("bad gb-knn config line");
    }
  }

  RdGbgConfig gbg;
  gbg.density_tolerance = rho;
  gbg.seed = seed;
  LoadedModel model;
  MinMaxScaler scaler;
  scaler.Restore(mins, maxs);
  auto classifier = std::make_unique<GbKnnClassifier>(gbg, k);
  classifier->Restore(std::move(balls).value(), std::move(scaler), classes);
  model.classifier = std::move(classifier);
  model.kind = "gb-knn";
  model.dims = dims;
  model.num_classes = classes;
  model.config = std::string(config_line);
  model.feature_mins = std::move(mins);
  model.feature_maxs = std::move(maxs);
  return model;
}

StatusOr<LoadedModel> ParseKnn(NumScanner& in, std::string_view body,
                               std::string_view config_line, int classes,
                               int dims) {
  std::string_view tok;
  int n = 0;
  if (!(in.ReadWord(&tok) && in.ReadInt(&n)) || tok != "data" || n < 1) {
    return Status::InvalidArgument("expected 'data <n>' section with n >= 1");
  }
  // Every value needs at least two input bytes; reject headers that
  // promise more data than the artifact holds before allocating.
  if (static_cast<long long>(n) * (dims + 1) * 2 >
      static_cast<long long>(body.size())) {
    return Status::InvalidArgument("header declares more data than input");
  }
  Matrix x(n, dims);
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dims; ++j) {
      if (!in.ReadDouble(&x.At(i, j))) {
        return Status::InvalidArgument("truncated training row " +
                                       std::to_string(i));
      }
      if (!std::isfinite(x.At(i, j))) {
        return Status::InvalidArgument("non-finite feature in row " +
                                       std::to_string(i));
      }
    }
    if (!in.ReadInt(&y[i])) {
      return Status::InvalidArgument("truncated label in row " +
                                     std::to_string(i));
    }
    if (y[i] < 0 || y[i] >= classes) {
      return Status::OutOfRange("label out of range in row " +
                                std::to_string(i));
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing data after training rows");
  }

  int k = 0;
  {
    NumScanner cfg(config_line);
    std::string_view c, kk;
    if (!(cfg.ReadWord(&c) && cfg.ReadWord(&kk) && cfg.ReadInt(&k)) ||
        kk != "k" || k < 1) {
      return Status::InvalidArgument("bad knn config line");
    }
  }

  LoadedModel model;
  model.feature_mins.assign(dims, std::numeric_limits<double>::infinity());
  model.feature_maxs.assign(dims, -std::numeric_limits<double>::infinity());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dims; ++j) {
      model.feature_mins[j] = std::min(model.feature_mins[j], x.At(i, j));
      model.feature_maxs[j] = std::max(model.feature_maxs[j], x.At(i, j));
    }
  }
  auto classifier = std::make_unique<KnnClassifier>(k);
  classifier->Restore(Dataset(std::move(x), std::move(y), classes));
  model.classifier = std::move(classifier);
  model.kind = "knn";
  model.dims = dims;
  model.num_classes = classes;
  model.config = std::string(config_line);
  return model;
}

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ModelToString(const GbKnnClassifier& model) {
  GBX_CHECK_MSG(model.fitted(),
                "GB-kNN: ModelToString called before Fit/Restore");
  const std::string balls = GranularBallsToString(model.balls());
  std::string out;
  out.reserve(balls.size() + 64 * model.scaler().mins().size() + 256);
  out += kMagic;
  out += "\nclassifier gb-knn\nconfig k ";
  AppendInt(model.k(), &out);
  out += " rho ";
  AppendInt(model.config().density_tolerance, &out);
  out += " seed ";
  AppendInt(model.effective_seed(), &out);
  out += "\nclasses ";
  AppendInt(model.num_classes(), &out);
  out += " dims ";
  AppendInt(model.balls().scaled_features().cols(), &out);
  out += "\nscaler minmax\n";
  AppendVector(model.scaler().mins(), &out);
  AppendVector(model.scaler().maxs(), &out);
  out += "balls\n";
  out += balls;
  AppendChecksumLine(&out);
  return out;
}

std::string ModelToString(const KnnClassifier& model) {
  GBX_CHECK_MSG(model.fitted(),
                "kNN: ModelToString called before Fit/Restore");
  const Dataset& train = model.train();
  std::string out;
  out.reserve(static_cast<std::size_t>(train.size()) *
                  (static_cast<std::size_t>(train.num_features()) * 20 + 4) +
              256);
  out += kMagic;
  out += "\nclassifier knn\nconfig k ";
  AppendInt(model.k(), &out);
  out += "\nclasses ";
  AppendInt(train.num_classes(), &out);
  out += " dims ";
  AppendInt(train.num_features(), &out);
  out += "\ndata ";
  AppendInt(train.size(), &out);
  out += '\n';
  for (int i = 0; i < train.size(); ++i) {
    for (int j = 0; j < train.num_features(); ++j) {
      AppendDouble(train.feature(i, j), &out);
      out += ' ';
    }
    AppendInt(train.label(i), &out);
    out += '\n';
  }
  AppendChecksumLine(&out);
  return out;
}

Status SaveModel(const GbKnnClassifier& model, const std::string& path) {
  metrics::ScopedTimerMs timer(SaveMsHistogram());
  const Status status = WriteFileAtomic(ModelToString(model), path);
  if (!status.ok()) RecordIoFailure("save", status);
  return status;
}

Status SaveModel(const KnnClassifier& model, const std::string& path) {
  metrics::ScopedTimerMs timer(SaveMsHistogram());
  const Status status = WriteFileAtomic(ModelToString(model), path);
  if (!status.ok()) RecordIoFailure("save", status);
  return status;
}

Status SaveModel(const Classifier& model, const std::string& path) {
  if (const auto* gbknn = dynamic_cast<const GbKnnClassifier*>(&model)) {
    return SaveModel(*gbknn, path);
  }
  if (const auto* knn = dynamic_cast<const KnnClassifier*>(&model)) {
    return SaveModel(*knn, path);
  }
  const Status status = Status::InvalidArgument(
      "no gbx-model serialization for " + model.name());
  RecordIoFailure("save", status);
  return status;
}

StatusOr<LoadedModel> ModelFromString(std::string_view text) {
  std::uint64_t checksum = 0;
  StatusOr<std::string_view> body = VerifyChecksum(text, &checksum);
  if (!body.ok()) return body.status();

  NumScanner in(*body);
  std::string_view line;
  if (!in.ReadLine(&line) || line != kMagic) {
    return Status::InvalidArgument("bad magic line");
  }
  std::string_view tok, kind;
  if (!(in.ReadWord(&tok) && in.ReadWord(&kind)) || tok != "classifier") {
    return Status::InvalidArgument("missing classifier line");
  }
  in.ReadLine(&line);  // consume the rest of the classifier line

  std::string_view config_line;
  if (!in.ReadLine(&config_line) || !config_line.starts_with("config ")) {
    return Status::InvalidArgument("missing config line");
  }

  int classes = 0, dims = 0;
  {
    std::string_view k1, k2;
    if (!(in.ReadWord(&k1) && in.ReadInt(&classes) && in.ReadWord(&k2) &&
          in.ReadInt(&dims)) ||
        k1 != "classes" || k2 != "dims" || classes < 1 || dims < 1) {
      return Status::InvalidArgument("bad classes/dims line");
    }
  }
  StatusOr<LoadedModel> model =
      kind == "gb-knn" ? ParseGbKnn(in, *body, config_line, classes, dims)
      : kind == "knn"
          ? ParseKnn(in, *body, config_line, classes, dims)
          : StatusOr<LoadedModel>(Status::InvalidArgument(
                "unknown classifier kind '" + std::string(kind) + "'"));
  if (model.ok()) model->checksum = checksum;
  return model;
}

StatusOr<LoadedModel> LoadModel(const std::string& path) {
  metrics::ScopedTimerMs timer(LoadMsHistogram());
  const auto fail = [&](Status status) {
    RecordIoFailure("load", status);
    return status;
  };
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return fail(Status::NotFound("cannot open " + path));
  const std::streamoff size = in.tellg();
  std::string text(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  in.seekg(0);
  if (size < 0 ||
      !in.read(text.data(), static_cast<std::streamsize>(text.size()))) {
    return fail(Status::Internal("read error on " + path));
  }
  StatusOr<LoadedModel> model = ModelFromString(text);
  if (!model.ok()) return fail(model.status());
  return model;
}

}  // namespace gbx
