#include "src/common/worker_pool.h"

#include <algorithm>
#include <atomic>

namespace numalp {

namespace {
std::atomic<int> g_active_runner_jobs{0};
}  // namespace

int ActiveRunnerJobs() { return g_active_runner_jobs.load(std::memory_order_relaxed); }

ScopedActiveRunnerJobs::ScopedActiveRunnerJobs(int jobs) : jobs_(std::max(0, jobs)) {
  g_active_runner_jobs.fetch_add(jobs_, std::memory_order_relaxed);
}

ScopedActiveRunnerJobs::~ScopedActiveRunnerJobs() {
  g_active_runner_jobs.fetch_sub(jobs_, std::memory_order_relaxed);
}

int ResolveShardCount(int requested, bool force, int num_cores) {
  int shards = std::min(std::max(1, requested), std::max(1, num_cores));
  if (force || shards <= 1) {
    return shards;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int host = hw > 0 ? static_cast<int>(hw) : 1;
  const int jobs = std::max(1, ActiveRunnerJobs());
  return std::min(shards, std::max(1, host / jobs));
}

ShardPool::ShardPool(int shards) : shards_(std::max(1, shards)) {
  threads_.reserve(static_cast<std::size_t>(shards_ - 1));
  for (int w = 1; w < shards_; ++w) {
    threads_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

ShardPool::~ShardPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ShardPool::Run(const std::function<void(int)>& fn) {
  Start(fn);
  Join();
}

void ShardPool::Start(const std::function<void(int)>& fn) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    outstanding_ = shards_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
}

void ShardPool::Join() {
  // Only this thread writes job_, so it reads it without the lock.
  if (job_ == nullptr) {
    return;
  }
  // Helpers hold a pointer to the job: even when fn(0) throws, wait for all
  // of them before the caller's frame (and the job) can unwind.
  std::exception_ptr error;
  try {
    (*job_)(0);
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this]() { return outstanding_ == 0; });
  job_ = nullptr;
  if (error == nullptr) {
    error = helper_error_;
  }
  helper_error_ = nullptr;
  lock.unlock();
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void ShardPool::WorkerLoop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [this, seen]() { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(worker);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Keep the lowest-numbered helper's exception, so which one the
      // caller sees does not depend on scheduling.
      if (error != nullptr && (helper_error_ == nullptr || worker < helper_error_worker_)) {
        helper_error_ = error;
        helper_error_worker_ = worker;
      }
      --outstanding_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace numalp
