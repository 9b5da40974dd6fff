// Thread counts the bit-identity batteries sweep (thread_determinism_test.cc,
// rd_gbg_test.cc).
#ifndef GBX_TESTS_THREAD_COUNTS_H_
#define GBX_TESTS_THREAD_COUNTS_H_

#include <vector>

#include "common/parallel.h"

namespace gbx {

inline std::vector<int> ThreadCountsUnderTest() {
  // 0 resolves to GBX_THREADS / hardware concurrency; the explicit counts
  // force real multi-threaded execution even on a single-core machine
  // (the pool grows on demand).
  return {1, 2, 0, HardwareThreads() + 3};
}

}  // namespace gbx

#endif  // GBX_TESTS_THREAD_COUNTS_H_
