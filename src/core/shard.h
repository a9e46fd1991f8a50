// Intra-cell core sharding (DESIGN.md Section 10): the per-core execution
// context owning all slice-local simulation state. The worker pool that runs
// speculative parallel windows over those contexts is in
// src/common/worker_pool.h.
#ifndef NUMALP_SRC_CORE_SHARD_H_
#define NUMALP_SRC_CORE_SHARD_H_

#include <cstdint>
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

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_SHARD_H_
