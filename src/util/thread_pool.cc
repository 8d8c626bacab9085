#include "src/util/thread_pool.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "src/obs/log.h"
#include "src/obs/obs.h"

namespace artc::util {

size_t DefaultJobs() {
  // Read once, so a malformed value is reported once.
  static const size_t jobs = [] {
    const std::optional<uint64_t> v = obs::EnvDecimal("ARTC_JOBS", SIZE_MAX);
    return v && *v > 0 ? static_cast<size_t>(*v)
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  }();
  return jobs;
}

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) {
    workers = DefaultJobs();
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
    ARTC_OBS_COUNT("threadpool.tasks_submitted", 1);
    ARTC_OBS_OBSERVE("threadpool.queue_depth", queue_.size());
    if (active_ == workers_.size()) {
      // Every worker busy at submit time: the task will queue, not run.
      // A high ratio of these to tasks_submitted means the pool is the
      // bottleneck, not the work.
      ARTC_OBS_COUNT("threadpool.saturated_submits", 1);
    }
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
    if (queue_.empty()) {
      return;  // stopping_ and fully drained
    }
    std::function<void()> fn = std::move(queue_.front());
    queue_.pop_front();
    active_++;
    lock.unlock();
    ARTC_OBS_GAUGE_ADD("threadpool.active_workers", 1);
    fn();
    ARTC_OBS_GAUGE_ADD("threadpool.active_workers", -1);
    ARTC_OBS_COUNT("threadpool.tasks_completed", 1);
    lock.lock();
    active_--;
    if (queue_.empty() && active_ == 0) {
      idle_cv_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool& pool, size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = n;
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) {
        done_cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace artc::util
