#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>

namespace gbx {

namespace {

// Depth of pool tasks on the current thread; > 0 means a nested parallel
// loop must run serially.
thread_local int g_parallel_depth = 0;

}  // namespace

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int DefaultNumThreads() {
  const char* env = std::getenv("GBX_THREADS");
  if (env != nullptr && *env != '\0') {
    const int v = std::atoi(env);
    if (v > 0) return std::min(v, ThreadPool::kMaxWorkers + 1);
  }
  return HardwareThreads();
}

int ResolveNumThreads(int num_threads) {
  return num_threads > 0 ? num_threads : DefaultNumThreads();
}

ThreadPool::ThreadPool(int num_workers) { EnsureWorkers(num_workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

ThreadPool& ThreadPool::Global() {
  // The caller always participates, so DefaultNumThreads()-1 workers give
  // the default thread count. Grows later if a caller asks for more.
  static ThreadPool pool(DefaultNumThreads() - 1);
  return pool;
}

bool ThreadPool::InParallelRegion() { return g_parallel_depth > 0; }

void ThreadPool::EnsureWorkers(int target) {
  target = std::min(target, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < target) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::RunChunks(Job* job) {
  ++g_parallel_depth;
  for (;;) {
    const int chunk = job->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job->num_chunks) break;
    const int begin = chunk * job->grain;
    const int end = std::min(job->count, begin + job->grain);
    job->fn(begin, end);
    if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk: wake the owner. The lock pairs with the owner's
      // predicate check so the notification cannot be missed.
      std::lock_guard<std::mutex> lock(job->done_mu);
      job->done_cv.notify_all();
    }
  }
  --g_parallel_depth;
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      job = job_;  // keep the job alive while running its chunks
    }
    // Every worker wakes, but only max_threads - 1 of them may run the
    // job's chunks.
    if (job->seats.fetch_sub(1, std::memory_order_relaxed) > 0) {
      RunChunks(job.get());
    }
  }
}

void ThreadPool::ParallelForRange(int count, int grain, int max_threads,
                                  const std::function<void(int, int)>& fn) {
  if (count <= 0) return;
  grain = std::max(grain, 1);
  const int num_chunks = (count + grain - 1) / grain;
  const int threads = std::clamp(max_threads, 1, num_chunks);
  if (threads == 1 || InParallelRegion()) {
    fn(0, count);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->count = count;
  job->grain = grain;
  job->num_chunks = num_chunks;
  job->remaining.store(num_chunks, std::memory_order_relaxed);
  job->seats.store(threads - 1, std::memory_order_relaxed);
  EnsureWorkers(threads - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++generation_;
  }
  cv_.notify_all();

  RunChunks(job.get());  // the caller is always an executor

  {
    // Workers may still be finishing chunks they claimed before the
    // caller drained the queue.
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(
        lock, [&] { return job->remaining.load(std::memory_order_acquire) == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job_ == job) job_ = nullptr;
  }
}

void ParallelFor(int count, int num_threads,
                 const std::function<void(int)>& fn) {
  ThreadPool::Global().ParallelForRange(
      count, /*grain=*/1, ResolveNumThreads(num_threads),
      [&fn](int begin, int end) {
        for (int i = begin; i < end; ++i) fn(i);
      });
}

void ParallelForRange(int count, int grain, int num_threads,
                      const std::function<void(int, int)>& fn) {
  ThreadPool::Global().ParallelForRange(count, grain,
                                        ResolveNumThreads(num_threads), fn);
}

namespace {
constexpr std::int64_t kMinParallelWork = 16384;
constexpr std::int64_t kTargetChunkWork = 8192;
}  // namespace

int ParallelThreads(std::int64_t items, std::int64_t unit_cost, int threads) {
  const std::int64_t work = items * std::max<std::int64_t>(unit_cost, 1);
  return work >= kMinParallelWork ? threads : 1;
}

int ParallelGrain(std::int64_t unit_cost) {
  return static_cast<int>(std::max<std::int64_t>(
      16, kTargetChunkWork / std::max<std::int64_t>(unit_cost, 1)));
}

}  // namespace gbx
