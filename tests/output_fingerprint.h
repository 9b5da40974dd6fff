// FNV-1a fingerprints of sampler and classifier outputs, for the cases
// that pin them over paper-suite stand-ins at fixed seeds
// (smote_family_test, tomek_test, knn_test). One flipped label or feature
// bit changes the value; the row count and order are part of it.
#ifndef GBX_TESTS_OUTPUT_FINGERPRINT_H_
#define GBX_TESTS_OUTPUT_FINGERPRINT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "data/dataset.h"

namespace gbx {

class OutputFingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t Fingerprint(const std::vector<int>& values) {
  OutputFingerprint f;
  f.Add(static_cast<std::uint64_t>(values.size()));
  for (int v : values) f.Add(static_cast<std::uint64_t>(v));
  return f.value();
}

inline std::uint64_t Fingerprint(const Dataset& ds) {
  OutputFingerprint f;
  f.Add(static_cast<std::uint64_t>(ds.size()));
  f.Add(static_cast<std::uint64_t>(ds.num_features()));
  for (int i = 0; i < ds.size(); ++i) {
    f.Add(static_cast<std::uint64_t>(ds.label(i)));
    for (int j = 0; j < ds.num_features(); ++j) f.Add(ds.feature(i, j));
  }
  return f.value();
}

}  // namespace gbx

#endif  // GBX_TESTS_OUTPUT_FINGERPRINT_H_
