// The persistent worker pool and the process-global oversubscription guard
// (DESIGN.md Section 10). The access engine runs its speculative windows and
// batch fills on a ShardPool, and trace synthesis fills and encodes its
// per-thread batches on one; the guard keeps grid-level parallelism
// (ExperimentRunner jobs) and either of those from multiplying into more
// threads than the host has.
#ifndef NUMALP_SRC_COMMON_WORKER_POOL_H_
#define NUMALP_SRC_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace numalp {

// --- Oversubscription guard -------------------------------------------------

// Worker threads the ExperimentRunner currently has running, process-wide.
// Simulations consult it when resolving their effective shard count so
// NUMALP_JOBS=8 with 4 shards does not become 32 threads.
int ActiveRunnerJobs();

// RAII registration of a runner's worker count for the guard's lifetime.
class ScopedActiveRunnerJobs {
 public:
  explicit ScopedActiveRunnerJobs(int jobs);
  ~ScopedActiveRunnerJobs();

  ScopedActiveRunnerJobs(const ScopedActiveRunnerJobs&) = delete;
  ScopedActiveRunnerJobs& operator=(const ScopedActiveRunnerJobs&) = delete;

 private:
  int jobs_;
};

// Effective shard count for one Simulation: `requested` clamped to the
// simulated core count and — unless `force` — to the host thread budget
// (hardware concurrency divided by the active runner jobs). Shards never
// change results, so clamping is always safe; `force` exists for scaling
// measurements and determinism tests that must spawn real workers anyway.
int ResolveShardCount(int requested, bool force, int num_cores);

// --- Worker pool -------------------------------------------------------------

// A persistent pool of `shards - 1` helper threads plus the calling thread,
// dispatching one job per parallel window. Condvar-parked between windows
// (epochs are short; busy-spinning would burn the very cores the shards are
// supposed to use), created once per Simulation.
class ShardPool {
 public:
  explicit ShardPool(int shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  int shards() const { return shards_; }

  // Invokes fn(worker) for worker in [0, shards); fn(0) runs on the calling
  // thread. Returns after every invocation has finished (the apply phase
  // needs a barrier: it reads what the workers wrote) — also when some
  // invocation throws: Run still waits for every worker, then rethrows on
  // the caller (fn(0)'s exception first, else the lowest-numbered helper's).
  // The pool stays usable afterwards. Run is Start followed by Join.
  void Run(const std::function<void(int)>& fn);

  // The asynchronous half of Run: Start invokes fn(worker) for worker in
  // [1, shards) on the helpers and returns at once, so the caller can do
  // other work meanwhile; `fn` must stay alive until Join. At one shard it
  // starts nothing. Join runs fn(0) on the calling thread, waits for every
  // helper and rethrows as Run does; without a started job it returns at
  // once. No other dispatch may come between the two.
  void Start(const std::function<void(int)>& fn);
  void Join();

 private:
  void WorkerLoop(int worker);

  int shards_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::exception_ptr helper_error_;  // lowest-numbered failing helper's
  int helper_error_worker_ = 0;      // ... and that helper's index
  std::uint64_t generation_ = 0;
  int outstanding_ = 0;
  bool stop_ = false;
};

}  // namespace numalp

#endif  // NUMALP_SRC_COMMON_WORKER_POOL_H_
