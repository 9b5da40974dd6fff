#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gbx {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> counts(1000);
  ParallelFor(1000, 8, [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelForTest, ZeroAndNegativeCountAreNoOps) {
  ParallelFor(0, 4, [](int) { FAIL(); });
  ParallelFor(-3, 4, [](int) { FAIL(); });
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  int sum = 0;
  // Capturing a plain int is only safe because 1 thread = serial inline.
  ParallelFor(5, 1, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 10);
}

TEST(ParallelForRangeTest, ChunksCoverRangeExactlyOnce) {
  std::vector<std::atomic<int>> counts(10007);
  ParallelForRange(10007, 64, 8, [&](int begin, int end) {
    ASSERT_LE(0, begin);
    ASSERT_LT(begin, end);
    ASSERT_LE(end, 10007);
    for (int i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  for (int i = 0; i < 10007; ++i) ASSERT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelForRangeTest, GrainLargerThanCountMeansOneChunk) {
  std::atomic<int> calls{0};
  ParallelForRange(10, 1000, 8, [&](int begin, int end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, NestedLoopsRunSeriallyAndComplete) {
  // A parallel loop inside a pool task must serialize instead of
  // deadlocking on the shared pool.
  std::vector<std::atomic<int>> counts(64 * 64);
  ParallelFor(64, 4, [&](int i) {
    ParallelFor(64, 4, [&](int j) { counts[i * 64 + j].fetch_add(1); });
  });
  for (int i = 0; i < 64 * 64; ++i) ASSERT_EQ(counts[i].load(), 1);
}

TEST(ParallelForTest, ManyThreadsFewItems) {
  std::vector<std::atomic<int>> counts(3);
  ParallelFor(3, 64, [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelForTest, RepeatedCallsReuseThePool) {
  // Regression guard for job-handoff races: many small dispatches in a row.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    ParallelFor(17, 4, [&](int i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ResolveNumThreadsTest, ExplicitPositiveWins) {
  EXPECT_EQ(ResolveNumThreads(3), 3);
  EXPECT_EQ(ResolveNumThreads(1), 1);
}

TEST(ResolveNumThreadsTest, NonPositiveFallsBackToDefault) {
  EXPECT_EQ(ResolveNumThreads(0), DefaultNumThreads());
  EXPECT_EQ(ResolveNumThreads(-1), DefaultNumThreads());
  EXPECT_GE(DefaultNumThreads(), 1);
}

TEST(ResolveNumThreadsTest, GbxThreadsEnvOverridesDefault) {
  ASSERT_EQ(setenv("GBX_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultNumThreads(), 3);
  EXPECT_EQ(ResolveNumThreads(0), 3);
  EXPECT_EQ(ResolveNumThreads(5), 5);  // explicit still wins
  // Non-positive and garbage values are ignored.
  ASSERT_EQ(setenv("GBX_THREADS", "0", 1), 0);
  EXPECT_EQ(DefaultNumThreads(), HardwareThreads());
  ASSERT_EQ(setenv("GBX_THREADS", "junk", 1), 0);
  EXPECT_EQ(DefaultNumThreads(), HardwareThreads());
  ASSERT_EQ(unsetenv("GBX_THREADS"), 0);
  EXPECT_EQ(DefaultNumThreads(), HardwareThreads());
}

TEST(ThreadPoolTest, GrowsOnDemandAndReportsWorkers) {
  ThreadPool& pool = ThreadPool::Global();
  std::vector<std::atomic<int>> counts(256);
  // Request more executors than the default pool size; the pool grows.
  pool.ParallelForRange(256, 1, 6, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  EXPECT_GE(pool.num_workers(), std::min(6, 256) - 1);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(counts[i].load(), 1);
}

TEST(ThreadPoolTest, DedicatedPoolIndependentOfGlobal) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2);
  std::atomic<long> sum{0};
  pool.ParallelForRange(1000, 16, 3, [&](int begin, int end) {
    long local = 0;
    for (int i = begin; i < end; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 1000L * 999 / 2);
}

TEST(ThreadPoolTest, LargerPoolRunsAJobOnAtMostMaxThreads) {
  // Three workers plus the caller could all claim chunks; a job asking
  // for two executors must get two, however many workers wake.
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> executors;
  pool.ParallelForRange(64, 1, 2, [&](int, int) {
    {
      std::lock_guard<std::mutex> lock(mu);
      executors.insert(std::this_thread::get_id());
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(500);
    while (std::chrono::steady_clock::now() < until) {
    }
  });
  EXPECT_LE(executors.size(), 2u);
}

TEST(ParallelForTest, DeterministicOutputSlots) {
  // The canonical usage pattern: disjoint output slots make the result
  // independent of scheduling. Compare a serial and a parallel fill.
  const int n = 4096;
  std::vector<double> serial(n), parallel(n);
  for (int i = 0; i < n; ++i) serial[i] = i * 0.5 + 1.0;
  ParallelFor(n, 8, [&](int i) { parallel[i] = i * 0.5 + 1.0; });
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace gbx
