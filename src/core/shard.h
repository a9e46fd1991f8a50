// Intra-cell core sharding (DESIGN.md Section 10): the per-core execution
// context owning all slice-local simulation state, the persistent worker
// pool that runs speculative parallel windows over those contexts, and the
// process-global oversubscription guard that keeps grid-level parallelism
// (ExperimentRunner jobs) and intra-cell parallelism (shards) from
// multiplying into more threads than the host has.
#ifndef NUMALP_SRC_CORE_SHARD_H_
#define NUMALP_SRC_CORE_SHARD_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/hw/counters.h"
#include "src/hw/tlb.h"
#include "src/vm/address_space.h"
#include "src/workloads/workload.h"

namespace numalp {

// Per-page-fault cycle accounting, split so AccessEngine::Execute can scale
// the fixed (page-table-lock) part by the epoch's fault concurrency while the
// zeroing part stays per-byte.
struct FaultCycleParts {
  Cycles fixed = 0;
  Cycles zero = 0;
};

// One simulated core's slice-local state in the access engine: everything
// ProcessSlice mutates that belongs to exactly one core, so a shard worker
// touches only its own contexts during a window and the shared structures
// stay read-only until the serialized apply phase.
struct ShardContext {
  ShardContext(const TlbConfig& tlb_config, int num_nodes, int core_id, int node_id)
      : tlb(tlb_config),
        tlb_backup(tlb_config),
        core(core_id),
        node(node_id) {
    spec_node_requests.assign(static_cast<std::size_t>(num_nodes), 0);
    spec_node_incoming_remote.assign(static_cast<std::size_t>(num_nodes), 0);
  }

  // --- Slice-local engine state (owned, mutated in place) -----------------
  Tlb tlb;
  Rng rng{0};
  AddressSpace::TranslationCache translate_cache;
  FaultCycleParts fault_parts;
  std::vector<WorkloadAccess> batch;  // this core's thread's epoch batch

  // --- Speculative-window scratch -----------------------------------------
  // Shared-counter mutations a speculative slice would have made are
  // redirected here as deltas and folded into EpochCounters at commit, in
  // canonical core order (integer sums — any order is the serial order).
  std::vector<std::uint64_t> spec_node_requests;
  std::vector<std::uint64_t> spec_node_incoming_remote;
  // IBS samples fired during a speculative window, tagged with the access's
  // absolute index in the epoch so the apply phase can replay them into the
  // engine's per-node stores in exact serial (round, thread) order.
  struct PendingSample {
    Addr va = 0;
    std::uint64_t index = 0;
    int home = 0;
    bool dram = false;
  };
  std::vector<PendingSample> pending_samples;
  std::size_t pending_cursor = 0;

  // --- Window snapshot (rollback target when speculation fails) -----------
  Tlb tlb_backup;
  Rng rng_backup{0};
  CoreCounters cc_backup;
  std::vector<std::uint64_t> core_node_requests_backup;
  std::uint64_t ibs_countdown_backup = 0;

  int core = 0;
  int node = 0;
};

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
  // The pool stays usable afterwards.
  void Run(const std::function<void(int)>& fn);

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

#endif  // NUMALP_SRC_CORE_SHARD_H_
