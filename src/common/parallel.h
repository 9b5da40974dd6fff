// Persistent thread pool and deterministic parallel-for primitives.
//
// Every parallel loop in the library funnels through the process-wide
// ThreadPool::Global() instance, so worker threads are created once and
// reused across granulation rounds, benchmark iterations, and experiment
// cells instead of being spawned per call. Determinism contract: both
// ParallelFor and ParallelForRange only change *which thread* executes an
// index, never the work done for it — callers that write to disjoint
// per-index slots (the pattern used throughout gbx) get bit-identical
// results at any thread count.
//
// Thread-count resolution, everywhere a `num_threads` knob appears:
//   > 0  use exactly that many threads (the pool grows on demand);
//   <= 0 use the GBX_THREADS environment variable if set to a positive
//        integer, otherwise std::thread::hardware_concurrency().
//
// Nested parallelism is safe: a parallel loop issued from inside a pool
// task runs serially on the issuing thread, so granulation running under
// the experiment runner's per-cell parallelism cannot deadlock or
// oversubscribe.
#ifndef GBX_COMMON_PARALLEL_H_
#define GBX_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gbx {

/// std::thread::hardware_concurrency(), never less than 1.
int HardwareThreads();

/// The default worker count: GBX_THREADS when set to a positive integer,
/// otherwise HardwareThreads(). Re-read on every call so tests can adjust
/// the environment.
int DefaultNumThreads();

/// `num_threads > 0` wins; otherwise DefaultNumThreads().
int ResolveNumThreads(int num_threads);

class ThreadPool {
 public:
  /// Spawns `num_workers` persistent workers (clamped to [0, kMaxWorkers]).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const;

  /// Runs fn(begin, end) over chunks of ~`grain` indices covering
  /// [0, count), using up to `max_threads` executors (workers plus the
  /// calling thread, which always participates). Blocks until every chunk
  /// has finished. fn must be safe to invoke concurrently and must not
  /// throw. Runs serially inline when one executor suffices or when
  /// called from inside a pool task.
  void ParallelForRange(int count, int grain, int max_threads,
                        const std::function<void(int, int)>& fn);

  /// Process-wide pool shared by the whole library. Sized so that the
  /// default thread count (GBX_THREADS or hardware concurrency) is
  /// available; grows on demand when a caller asks for more.
  static ThreadPool& Global();

  /// True when the current thread is executing a pool task (used to
  /// serialize nested parallel loops).
  static bool InParallelRegion();

  /// Hard cap on pool size, a safety bound for absurd GBX_THREADS values.
  static constexpr int kMaxWorkers = 256;

 private:
  struct Job {
    std::function<void(int, int)> fn;
    int count = 0;
    int grain = 1;
    int num_chunks = 0;
    std::atomic<int> next{0};       // next chunk to claim
    std::atomic<int> seats{0};      // workers that may still join
    std::atomic<int> remaining{0};  // chunks not yet finished
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  void EnsureWorkers(int target);
  void WorkerLoop();
  static void RunChunks(Job* job);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;       // currently published job, if any
  std::uint64_t generation_ = 0;   // bumped on every publish
  bool stop_ = false;
};

/// Parallel map over [0, count): fn(i) on the global pool, dynamically
/// scheduled one index at a time (best for heavyweight per-index work).
/// `num_threads` as per ResolveNumThreads.
void ParallelFor(int count, int num_threads,
                 const std::function<void(int)>& fn);

/// Chunked parallel map over [0, count): fn(begin, end) on the global
/// pool with a minimum chunk size of `grain` (best for cheap per-index
/// work where scheduling overhead matters).
void ParallelForRange(int count, int grain, int num_threads,
                      const std::function<void(int, int)>& fn);

/// Shared dispatch policy for the distance-heavy hot loops (granulation,
/// k-means, DPC): `unit_cost` approximates the inner-loop length per item
/// (e.g. the dimensionality, or k*d). Loops carrying less than ~16k total
/// units are not worth a pool handoff and run serially; chunks target
/// ~8k units so per-chunk scheduling overhead stays negligible.
int ParallelThreads(std::int64_t items, std::int64_t unit_cost, int threads);
int ParallelGrain(std::int64_t unit_cost);

}  // namespace gbx

#endif  // GBX_COMMON_PARALLEL_H_
