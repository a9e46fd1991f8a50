// The experiment kernel: runs one workload on one simulated machine under one
// policy configuration and produces the run's cycle count plus every metric
// the paper reports (DESIGN.md Section 3 describes the epoch model).
#ifndef NUMALP_SRC_CORE_SIMULATION_H_
#define NUMALP_SRC_CORE_SIMULATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/carrefour/carrefour.h"
#include "src/common/rng.h"
#include "src/core/carrefour_lp.h"
#include "src/core/config.h"
#include "src/core/shard.h"
#include "src/hw/counters.h"
#include "src/hw/ibs.h"
#include "src/hw/interconnect.h"
#include "src/hw/mem_ctrl.h"
#include "src/hw/tlb.h"
#include "src/hw/walker.h"
#include "src/mem/phys_mem.h"
#include "src/metrics/numa_metrics.h"
#include "src/metrics/sample_window.h"
#include "src/topo/topology.h"
#include "src/trace/trace_writer.h"
#include "src/vm/address_space.h"
#include "src/vm/thp.h"
#include "src/workloads/access_source.h"
#include "src/workloads/workload.h"

namespace numalp {

struct EpochRecord {
  int epoch = 0;
  Cycles wall = 0;             // includes policy overhead
  Cycles policy_overhead = 0;  // sampling + migration + split + promotion work
  bool in_setup = false;       // some thread was still first-touching memory
  NumaMetrics metrics;
  double thp_coverage = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t splits = 0;
  std::uint64_t promotions = 0;
  bool thp_alloc_enabled = false;
  bool thp_promote_enabled = false;
  // Reactive-component estimates (when active).
  double est_current_lar = 0.0;
  double est_carrefour_lar = 0.0;
  double est_split_lar = 0.0;
};

// Speculative-window outcomes over a run (DESIGN.md Section 10), counted
// once per window or serial span, never per access. Window boundaries and
// outcomes are pure functions of simulation state, so the counts are
// identical at every shard count.
struct SpeculationStats {
  std::uint64_t windows_committed = 0;
  // A failed window's serial replay makes at least one shared mutation. It
  // counts as a fault abort when the replay took a demand fault, otherwise
  // as a hint abort (it consumed a migrate-on-touch mark).
  std::uint64_t windows_fault_aborted = 0;
  std::uint64_t windows_hint_aborted = 0;
  // Rounds the serial loop ran: setup epochs, failed-window replays, and the
  // serial penalty spans after a failed window. (The serial oracle,
  // tests/oracles/serial_engine.h, runs no windows and counts only its
  // setup rounds.)
  std::uint64_t setup_rounds = 0;
  std::uint64_t replay_rounds = 0;
  std::uint64_t penalty_rounds = 0;
};

struct RunResult {
  std::string workload;
  std::string machine;
  PolicyKind policy = PolicyKind::kLinux4K;
  bool completed = false;
  int epochs = 0;
  Cycles total_cycles = 0;
  // Wall cycles of steady-state (non-setup) epochs: what the paper's
  // benchmarks report (NAS excludes initialization, SPECjbb measures
  // steady throughput). Metis-style allocation happens *during* the steady
  // phase and stays included.
  Cycles measured_cycles = 0;
  std::vector<EpochRecord> history;

  // Cumulative counters (per core and machine-wide).
  std::vector<CoreCounters> core_totals;
  CoreCounters totals;
  std::vector<std::uint64_t> node_request_totals;
  std::uint64_t total_migrations = 0;
  std::uint64_t total_splits = 0;
  std::uint64_t total_promotions = 0;
  Cycles total_policy_overhead = 0;
  // IBS page aggregates merged over the whole run (mapping granularity).
  PageAggMap cumulative_pages;
  double final_thp_coverage = 0.0;

  // Cell health (DESIGN.md Section 12): "ok", "deadline" (the watchdog
  // cancelled the run at an epoch boundary), or "failed: <reason>" (the
  // runner caught an exception and recorded this stub row instead of
  // killing the grid).
  std::string status = "ok";
  // Fault-injection telemetry (all zero with faults off).
  std::uint64_t fault_alloc_failures = 0;
  std::uint64_t fault_migration_failures = 0;
  std::uint64_t fault_split_failures = 0;
  std::uint64_t fault_truncated_plans = 0;
  std::uint64_t fault_pressure_epochs = 0;
  std::uint64_t fault_promote_backoffs = 0;
  std::uint64_t fault_retried_migrations = 0;
  std::uint64_t fault_abandoned_pages = 0;
  std::uint64_t thp_fallback_faults = 0;
  // mmap-lifetime churn (trace sources only; zero for the generators):
  // regions mapped/unmapped mid-run and bytes returned to the buddy
  // allocator through AddressSpace::MunmapRange.
  std::uint64_t region_maps = 0;
  std::uint64_t region_unmaps = 0;
  std::uint64_t unmapped_bytes = 0;
  // Stream provenance ("workload@machine#seed" from the trace header) when
  // this run captured or replayed a trace; empty otherwise. Identical for a
  // capturing run and every replay of its file — part of the byte-identity
  // contract (DESIGN.md §14).
  std::string trace_source;
  // Buddy-allocator fragmentation telemetry at run end (filled on every
  // run): worst per-node fragmentation index, largest free order across
  // nodes, how many 2MB blocks the free lists could still serve, and how
  // many Alloc calls failed over the run.
  double frag_index_pct = 0.0;
  int buddy_largest_free_order = -1;
  std::uint64_t buddy_free_2m_blocks = 0;
  std::uint64_t buddy_alloc_failures = 0;

  // Profiler state accounting (DESIGN.md Section 11). Deliberately NOT part
  // of ResultRow/JSONL output: profile modes must stay byte-identical on the
  // report surface whenever their decisions are identical, and these fields
  // differ by construction (sketch mode carries a fixed filter+sketch
  // budget). The profile-sweep bench reads them directly.
  std::uint64_t profile_peak_entries = 0;     // exact-aggregate entry high-water
  std::uint64_t profile_state_bytes = 0;      // peak entries + filter/sketch bytes
  std::uint64_t profile_admission_misses = 0; // samples the full filter dropped
  // Engine telemetry, likewise kept off ResultRow: the serial oracle runs no
  // windows, so its counts differ from the windowed engine's while its rows
  // do not.
  SpeculationStats speculation;

  // --- Paper-metric helpers ----------------------------------------------
  double LarPct() const;
  double ImbalancePct() const;
  double WalkL2MissFrac() const;
  // Max over cores of (fault handler cycles / total run cycles), as a %.
  double MaxFaultTimeSharePct() const;
  // Same metric restricted to steady-state epochs (the paper's benchmarks
  // amortize their startup over minutes of execution; our runs are seconds,
  // so the one-time first-touch storm would otherwise dominate).
  double SteadyMaxFaultSharePct() const;
  // Max over cores of fault-handler time in milliseconds.
  double MaxFaultTimeMs(double clock_ghz) const;
  double PamupPct() const;
  int Nhp() const;
  double PspPct() const;
  double RuntimeMs(double clock_ghz) const;
};

// Performance improvement of `run` over `baseline` in percent, the y-axis of
// Figures 1-5 ("perf. improvement relative to default Linux").
double ImprovementPct(const RunResult& baseline, const RunResult& run);

class Simulation {
 public:
  Simulation(const Topology& topo, const WorkloadSpec& workload, const PolicyConfig& policy,
             const SimConfig& sim);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  RunResult Run();

  // Accessors for tests that drive epochs manually.
  AddressSpace& address_space() { return *address_space_; }
  ThpState& thp_state() { return thp_state_; }
  const Topology& topology() const { return topo_; }
  // Effective intra-cell shard count after the oversubscription clamp
  // (DESIGN.md Section 10): host threads running the speculative windows.
  int shard_count() const { return shard_pool_->shards(); }
  // The cell's fault schedule, or nullptr with faults off.
  const FaultPlan* fault_plan() const { return fault_plan_.get(); }

  // Cooperative cancellation for the runner's watchdog: when the flag goes
  // true, Run() stops at the next epoch boundary and records status
  // "deadline". Checked only between epochs, so a cancelled run is still a
  // deterministic prefix of the uncancelled one.
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

 private:
  // Sets pure_serial_ before Run(); test-only, so no config field exists.
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
  // Executes one slice of a thread's access batch on the context's core.
  // Batching hoists the per-core state (counters, RNG, TLB, translate
  // cache) and the per-region cost tables out of the per-access path; each
  // access is processed exactly as the seed's per-call engine did.
  //
  // kSpeculative runs the identical access arithmetic against frozen shared
  // state: mutations of shared counters are redirected to the context's
  // delta scratch, IBS samples queue as pending (tagged with
  // `base_index + i` for serial-order replay), and the slice aborts —
  // returns false — at the first access that would mutate shared state (a
  // demand fault or a migrate-on-touch hint hit). The serial instantiation
  // always returns true.
  template <bool kSpeculative>
  bool ProcessSlice(ShardContext& ctx, const WorkloadAccess* accesses, std::size_t count,
                    std::size_t base_index);
  // Fills every thread's epoch batch into its core's context on the shard
  // pool: worker w fills threads t ≡ w mod S, the threads whose slices it
  // runs. Exact at any shard count by the AccessSource::FillBatch
  // concurrency contract.
  void FillBatches();
  // Runs every thread's epoch batch as speculative windows with serial
  // fallback, at every shard count. Setup epochs (the first-touch storm)
  // run serially, and so does every epoch under the serial oracle: its pure
  // round-robin loop is what the windows are diffed against.
  void ExecuteEpochAccesses(bool epoch_in_setup);
  // The seed's serial interleaving of rounds [first, last) — the reference
  // semantics every window must (and, committed, provably does) reproduce.
  // Runs setup epochs, failed-window replays and penalty spans.
  void RunRoundsSerial(std::size_t first_round, std::size_t last_round);
  // One speculative window over rounds [first, last): snapshot per-core
  // state, run each core's window slice on the shard pool against the frozen
  // shared state, then either commit the per-shard logs serially (no slice
  // aborted — the window provably equals the serial interleaving) or roll
  // every core back and report false for serial replay.
  bool TrySpeculativeWindow(std::size_t first_round, std::size_t last_round);
  void SnapshotShard(ShardContext& ctx);
  void RestoreShard(ShardContext& ctx);
  // Serialized apply phase of a committed window: fold the contexts' shared-
  // counter deltas in canonical core order and replay pending IBS samples
  // in serial (round, thread) order.
  void CommitWindow(std::size_t first_round, std::size_t last_round);
  // Runs the policy stack at the epoch boundary; returns overhead cycles and
  // fills the epoch record. `wall_so_far` is the app portion of the epoch.
  Cycles RunPolicies(Cycles wall_so_far, EpochRecord& record);

  Topology topo_;
  WorkloadSpec workload_spec_;
  PolicyConfig policy_;
  SimConfig sim_;

  PhysicalMemory phys_;
  ThpState thp_state_;
  std::unique_ptr<AddressSpace> address_space_;
  // The access stream: a synthetic generator (Workload) or a trace replay
  // (TraceWorkload), selected by WorkloadSpec::trace_file. The epoch loop
  // consumes the AccessSource interface only.
  std::unique_ptr<AccessSource> workload_;
  // Trace capture (WorkloadSpec::capture_file): records the stream at the
  // serial batch-fill points of the epoch loop (DESIGN.md §14).
  std::unique_ptr<trace::TraceWriter> capture_;
  // "workload@machine#seed" from the trace header when capturing or
  // replaying; lands in RunResult::trace_source.
  std::string trace_provenance_;
  PageWalker walker_;
  MemCtrlModel mem_ctrl_;
  InterconnectModel interconnect_;
  IbsEngine ibs_;
  EpochCounters counters_;
  Rng policy_rng_;

  Carrefour carrefour_;
  std::unique_ptr<CarrefourLp> lp_;
  KhugepagedScanner khugepaged_;
  // Fault injection (DESIGN.md Section 12); null with faults off — every
  // fault branch in the epoch loop is gated on this, so the default
  // configuration executes the exact pre-fault instruction stream.
  std::unique_ptr<FaultPlan> fault_plan_;
  const std::atomic<bool>* cancel_ = nullptr;
  // Carrefour-plan execution stats for the LP realized-gain discount
  // (maintained only under fault injection).
  std::uint64_t fault_mig_attempted_ = 0;
  std::uint64_t fault_mig_executed_ = 0;

  // Carrefour keeps per-page statistics for the lifetime of the run (the
  // kernel module never resets them); bound the window only as a safety cap.
  static constexpr std::size_t kSampleWindowEpochs = 512;

  PageAggMap cumulative_pages_;
  // Incrementally maintained sliding window over the last
  // kSampleWindowEpochs epochs of IBS samples.
  SampleWindow window_;
  // Sketch profile mode's epoch presketch (DESIGN.md Section 11): the
  // current epoch's sampled 4KB page bases, counted as they are sampled so
  // PushEpoch's admission test sees the whole epoch without an extra pass.
  // Speculative slices stage their additions in ShardContext::
  // spec_sketch_pages and CommitWindow folds them (commutative sums — the
  // shard-count identity argument of Section 10 covers them unchanged).
  // Maintained only when the window is actually consumed in sketch mode.
  CountSketch epoch_presketch_;
  bool presketch_enabled_ = false;
  // One execution context per core, owning every piece of slice-local state
  // (TLB, RNG, translation cache, fault accounting, the core's thread's
  // batch, and the speculative-window scratch/snapshot). Indexed by core;
  // thread t's batch lives in the context of CoreOfThread(t) — the pinning
  // is a bijection.
  std::vector<ShardContext> shard_ctx_;
  // The window engine's workers (DESIGN.md Section 10). A one-shard pool
  // (the default, and the clamped result on saturated hosts) spawns no
  // thread and runs each dispatch inline.
  std::unique_ptr<ShardPool> shard_pool_;
  std::atomic<bool> spec_failed_{false};
  // Adaptive window controller: grow on committed windows, shrink and fall
  // back to serial for a penalty span after a failed one. Deterministic —
  // window success depends only on simulation state, never on scheduling —
  // so the window boundaries (and therefore everything) are identical at
  // any shard count.
  std::size_t window_rounds_ = kMinWindowRounds;
  std::size_t serial_penalty_rounds_ = 0;
  // Runs every steady epoch through RunRoundsSerial, the seed's pure
  // round-robin loop, instead of speculative windows. Set only by the
  // serial oracle (tests/oracles/serial_engine.h); results are identical.
  bool pure_serial_ = false;
  SpeculationStats speculation_;
  // Per-region cost tables hoisted out of the access loop.
  std::vector<double> region_mlp_;
  std::vector<double> region_intensity_;
  // Pages demoted by the reactive component are placed lazily: the next
  // touch migrates the piece to the toucher's node (NUMA hinting-fault
  // placement — per-4KB-piece IBS evidence would take minutes to gather).
  FlatSet<Addr> migrate_on_touch_;
  Cycles hint_kernel_cycles_ = 0;
  std::uint64_t hint_migrations_ = 0;
  // Measured extra cost of one remote DRAM access this epoch (hop latency
  // plus destination queueing premium, averaged over the epoch's actual
  // remote traffic) — the reactive cost model's benefit side (DESIGN.md §8).
  Cycles remote_dram_premium_ = 0;
  // One-shot setup→steady transition: the decision window and Carrefour's
  // placement memory are cleared of the first-touch storm (DESIGN.md §8).
  bool steady_transition_done_ = false;
};

// Convenience wrapper used by benches and examples: builds the named
// workload on `topo`, runs it under `kind`, returns the result.
RunResult RunBenchmark(const Topology& topo, BenchmarkId bench, PolicyKind kind,
                       const SimConfig& sim);

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_SIMULATION_H_
