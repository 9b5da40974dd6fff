// Random datasets for the fuzz-style batteries (roundtrip_fuzz_test.cc,
// rd_gbg_test.cc): mixed scales and signs, exact zeros and tiny values,
// so distances collide far more often than on continuous data.
#ifndef GBX_TESTS_FUZZ_DATASET_H_
#define GBX_TESTS_FUZZ_DATASET_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace gbx {

inline Dataset RandomDataset(std::uint64_t seed) {
  Pcg32 rng(seed);
  const int n = 20 + static_cast<int>(rng.NextBounded(200));
  const int p = 1 + static_cast<int>(rng.NextBounded(12));
  const int q = 2 + static_cast<int>(rng.NextBounded(4));
  Matrix x(n, p);
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < p; ++j) {
      // Mix of scales and signs, including exact zeros and tiny values.
      const double magnitude =
          std::pow(10.0, rng.NextInt(-8, 8)) * rng.NextGaussian();
      x.At(i, j) = rng.NextBounded(20) == 0 ? 0.0 : magnitude;
    }
    y[i] = static_cast<int>(rng.NextBounded(q));
  }
  // Ensure at least two classes so downstream code paths stay generic.
  y[0] = 0;
  y[1] = 1;
  return Dataset(std::move(x), std::move(y));
}

}  // namespace gbx

#endif  // GBX_TESTS_FUZZ_DATASET_H_
