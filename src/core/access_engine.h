// The access engine (DESIGN.md Section 10): runs every thread's epoch batch
// of simulated accesses as speculative parallel windows with serial
// fallback. It owns the state only the access path touches; Simulation owns
// the shared machine state it reads and mutates.
#ifndef NUMALP_SRC_CORE_ACCESS_ENGINE_H_
#define NUMALP_SRC_CORE_ACCESS_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/core/config.h"
#include "src/core/run_result.h"
#include "src/core/shard.h"
#include "src/hw/counters.h"
#include "src/hw/ibs.h"
#include "src/hw/walker.h"
#include "src/topo/topology.h"
#include "src/vm/address_space.h"
#include "src/workloads/access_source.h"

namespace numalp {

class AccessEngine {
 public:
  using PageShootdown = std::pair<Addr, PageSize>;
  using RangeShootdown = std::pair<Addr, std::uint64_t>;

  // Every reference must outlive the engine.
  AccessEngine(const Topology& topo, const SimConfig& sim, AddressSpace& address_space,
               AccessSource& source, EpochCounters& counters, IbsEngine& ibs,
               const PageWalker& walker, FlatSet<Addr>& migrate_on_touch);

  int shards() const { return shard_pool_->shards(); }
  // Adds cost-table entries for regions the source mapped since the last
  // call, then fills every thread's epoch batch on the shard pool: worker w
  // fills the threads t ≡ w mod S whose slices it runs
  // (AccessSource::FillBatch).
  void FillBatches();
  const std::vector<WorkloadAccess>& batch(int thread) const {
    return shard_ctx_[static_cast<std::size_t>(CoreOfThread(thread))].batch;
  }
  // Runs the epoch's batches, then scales each core's fixed fault cycles by
  // the epoch's fault concurrency.
  void Execute(bool epoch_in_setup);
  // Invalidates the pages, then the ranges, in every core's TLB.
  void Shootdown(std::span<const PageShootdown> pages, std::span<const RangeShootdown> ranges);
  // The epoch's hinting-fault copy cycles and migrated pages; resets both.
  std::pair<Cycles, std::uint64_t> TakeHintMigrations() {
    return {std::exchange(hint_kernel_cycles_, 0), std::exchange(hint_migrations_, 0)};
  }
  const SpeculationStats& speculation() const { return speculation_; }

 private:
  // Sets pure_serial_; test-only, so no config field exists.
  friend class SerialEngine;

  // Accesses per round-robin slice. 32: coarser slices would let one thread
  // first-touch tens of 2MB windows "before" its peers, which no concurrent
  // machine does (see ExecuteEpochAccesses).
  static constexpr std::size_t kSliceAccesses = 32;
  // Speculative-window controller bounds, in rounds (one round = every
  // thread running one kSliceAccesses slice).
  static constexpr std::size_t kMinWindowRounds = 8;
  static constexpr std::size_t kMaxWindowRounds = 256;

  int CoreOfThread(int thread) const;
  // Executes one slice of a thread's access batch on the context's core,
  // each access exactly as the seed's per-call engine did. kSpeculative runs
  // the same arithmetic against frozen shared state: shared counters go to
  // the context's delta scratch, IBS samples queue as pending (tagged with
  // `base_index + i` for serial-order replay), and the slice returns false
  // at the first access that would mutate shared state (a demand fault or a
  // migrate-on-touch hint hit). The serial instantiation returns true.
  template <bool kSpeculative>
  bool ProcessSlice(ShardContext& ctx, const WorkloadAccess* accesses, std::size_t count,
                    std::size_t base_index);
  // Runs every thread's epoch batch as speculative windows with serial
  // fallback, at every shard count; setup epochs run serially.
  void ExecuteEpochAccesses(bool epoch_in_setup);
  // The seed's serial interleaving of rounds [first, last) — the reference
  // semantics every window must (and, committed, provably does) reproduce.
  // Runs setup epochs, failed-window replays and penalty spans.
  void RunRoundsSerial(std::size_t first_round, std::size_t last_round);
  // One speculative window over rounds [first, last): snapshot, run each
  // core's slice on the shard pool, then commit (no slice aborted: the window
  // equals the serial interleaving) or roll back and return false.
  bool TrySpeculativeWindow(std::size_t first_round, std::size_t last_round);
  void SnapshotShard(ShardContext& ctx);
  void RestoreShard(ShardContext& ctx);
  // Serialized apply phase of a committed window: fold the contexts' shared-
  // counter deltas in canonical core order and replay pending IBS samples
  // in serial (round, thread) order.
  void CommitWindow(std::size_t first_round, std::size_t last_round);

  const Topology& topo_;
  const SimConfig& sim_;
  AddressSpace* address_space_;
  AccessSource* workload_;
  EpochCounters& counters_;
  IbsEngine& ibs_;
  const PageWalker& walker_;
  // Pieces whose next toucher migrates them to its node (NUMA hinting-fault
  // placement of pages the reactive component demoted).
  FlatSet<Addr>& migrate_on_touch_;
  Cycles hint_kernel_cycles_ = 0;
  std::uint64_t hint_migrations_ = 0;

  // One execution context per core, owning all slice-local state. Indexed
  // by core; thread t's batch lives in CoreOfThread(t)'s context.
  std::vector<ShardContext> shard_ctx_;
  // A one-shard pool spawns no thread and runs each dispatch inline.
  std::unique_ptr<ShardPool> shard_pool_;
  std::atomic<bool> spec_failed_{false};
  // Adaptive window controller: grow on committed windows, shrink and stay
  // serial for a penalty span after a failed one. Window success depends
  // only on simulation state, so the boundaries match at any shard count.
  std::size_t window_rounds_ = kMinWindowRounds;
  std::size_t serial_penalty_rounds_ = 0;
  // Runs steady epochs through RunRoundsSerial instead of windows; set only
  // by the serial oracle (tests/oracles/serial_engine.h).
  bool pure_serial_ = false;
  SpeculationStats speculation_;
  // Per-region cost tables hoisted out of the access loop.
  std::vector<double> region_mlp_;
  std::vector<double> region_intensity_;
};

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_ACCESS_ENGINE_H_
