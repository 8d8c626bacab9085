// A fixed-size worker pool for host-level parallelism (suite compilation,
// concurrent sim replays). Distinct from sim::Simulation's simulated
// threads: these are real OS threads doing real work in host time.
//
// Shutdown semantics: the destructor drains the queue — every task that was
// submitted before destruction runs to completion before the workers join.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace artc::util {

// The process-wide host-parallelism default: the ARTC_JOBS environment
// variable if set to a positive integer, else hardware_concurrency (min 1).
// The variable is read on the first call; a malformed value is reported
// once and ignored.
// Everything that sizes a worker team without an explicit count — ThreadPool
// construction, parallel suite replays, the bench/check mains' --jobs
// flags — funnels through this one policy.
size_t DefaultJobs();

class ThreadPool {
 public:
  // workers == 0 picks DefaultJobs() (ARTC_JOBS / hardware_concurrency).
  explicit ThreadPool(size_t workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Never blocks; tasks run in submission order per worker
  // pickup (no further ordering guarantee across workers).
  void Submit(std::function<void()> fn);

  // Blocks until every task submitted so far has finished running.
  void Wait();

  size_t worker_count() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable idle_cv_;   // Wait(): queue empty and nothing active
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(0..n-1) on the pool and blocks until all iterations finish.
// Iterations must not Submit work they then need this call to wait for.
void ParallelFor(ThreadPool& pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace artc::util

#endif  // SRC_UTIL_THREAD_POOL_H_
