// Persistence for *trained* classifiers — the train-once / serve-forever
// boundary of the serving subsystem. A fitted model is captured in a
// versioned, self-describing text artifact and restored in another
// process with bit-identical predictions; this module round-trips it
// through the `gbx-model v1` format:
//
//   gbx-model v1
//   classifier gb-knn                  # or: knn
//   config k <k> rho <rho> seed <s>    # training-config fingerprint
//   classes <q> dims <p>
//   --- gb-knn payload ---
//   scaler minmax
//   <p per-feature mins>               # MinMaxScaler state, %.17g
//   <p per-feature maxs>
//   balls
//   gbx-granular-balls v1              # embedded gb_io block (gb_io.h)
//   ...
//   --- knn payload ---
//   config k <k>
//   data <n>
//   <p features + label per row>       # the stored training set
//   --- both ---
//   checksum fnv1a <16 hex digits>     # FNV-1a 64 over every prior byte
//
// Numbers go through common/num_text.h. Every double is written as the
// exact bytes of printf("%.17g") — 17 significant digits, so doubles
// round-trip losslessly and a loaded model's PredictBatch output is
// bit-identical to the fitted model it was saved from (enforced by
// tests/serve_test.cc). Shortest round-trip output would be smaller and
// just as lossless, but the checksum covers the bytes: it would give
// every existing model a new checksum (the version id clients pin), so
// the %.17g bytes are part of the format; tests/data holds artifacts
// that must re-save byte for byte. Integers are plain decimal. Reading
// takes numbers as `std::istream >>` does: decimal tokens
// [+-] digits [. digits] [(e|E) [+-] digits], no hex, "inf" or "nan",
// overflow rejected, any whitespace between tokens.
//
// Loading treats the artifact as untrusted input, mirroring gb_io.h:
// truncation, a corrupted byte (checksum mismatch), non-finite values,
// negative radii, dimension/class mismatches between sections, and
// trailing garbage all yield a descriptive error Status — never UB.
// The failure classes carry distinct codes so callers can react
// (serve/registry.h rollback, operator triage):
//
//   kNotFound         the artifact file does not exist
//   kDataLoss         the checksum envelope is damaged — truncated file
//                     or corrupted bytes (retry from a replica/backup)
//   kInvalidArgument  the bytes are intact (checksum verifies) but the
//                     format is wrong (version skew, handcrafted file)
//
// Saving is atomic and crash-safe: SaveModel writes the full artifact
// to a same-directory temp file, fsyncs, then rename(2)s it over the
// destination — a concurrently-loading replica or a post-crash restart
// sees either the complete old artifact or the complete new one, never
// a torn write. On any save failure (disk full, fsync error, injected
// failpoint — see common/failpoint.h sites model_io.save.*) the temp
// file is removed and the destination is untouched; ENOSPC surfaces as
// kResourceExhausted. Enforced by tests/chaos_test.cc.
#ifndef GBX_SERVE_MODEL_IO_H_
#define GBX_SERVE_MODEL_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ml/classifier.h"
#include "ml/gb_knn.h"
#include "ml/knn.h"

namespace gbx {

/// A classifier restored from a gbx-model artifact, plus the artifact
/// metadata serving needs without downcasting.
struct LoadedModel {
  std::unique_ptr<Classifier> classifier;
  /// "gb-knn" or "knn".
  std::string kind;
  int dims = 0;
  int num_classes = 0;
  /// The artifact's `config ...` fingerprint line, verbatim (which
  /// hyperparameters / granulation seed produced this model).
  std::string config;
  /// The artifact's verified FNV-1a-64 checksum — a content-addressed
  /// version id. The serving front-end tags every prediction response
  /// with it so clients can pin which model version answered
  /// (serve/registry.h hot-swap). 0 for a LoadedModel assembled by hand.
  std::uint64_t checksum = 0;
  /// Per-feature value ranges observed at training time (the scaler
  /// bounds for gb-knn, the training-data bounds for knn). Used by load
  /// generators (gbx_serve bench) to synthesize in-distribution queries.
  std::vector<double> feature_mins;
  std::vector<double> feature_maxs;
};

/// Serializes a fitted classifier. The classifier must be fitted.
std::string ModelToString(const GbKnnClassifier& model);
std::string ModelToString(const KnnClassifier& model);

/// Writes the artifact to `path`. The const-ref Classifier overload
/// dispatches on the dynamic type and returns InvalidArgument for
/// classifier types without a serialization (only GB-kNN and kNN ship
/// in format v1).
Status SaveModel(const GbKnnClassifier& model, const std::string& path);
Status SaveModel(const KnnClassifier& model, const std::string& path);
Status SaveModel(const Classifier& model, const std::string& path);

/// Parses an artifact produced by ModelToString / SaveModel. The result
/// holds no reference into `text`.
StatusOr<LoadedModel> ModelFromString(std::string_view text);

/// Reads an artifact written by SaveModel: one read into memory, one
/// checksum pass, one parse pass.
StatusOr<LoadedModel> LoadModel(const std::string& path);

/// FNV-1a 64-bit hash, the artifact checksum primitive (exposed for
/// tests).
std::uint64_t Fnv1a64(std::string_view bytes);

}  // namespace gbx

#endif  // GBX_SERVE_MODEL_IO_H_
