// What one simulation run produces: per-epoch records, cumulative counters,
// telemetry, and the paper metrics computed from them.
#ifndef NUMALP_SRC_CORE_RUN_RESULT_H_
#define NUMALP_SRC_CORE_RUN_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/core/config.h"
#include "src/hw/counters.h"
#include "src/metrics/numa_metrics.h"

namespace numalp {

class PhysicalMemory;

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
// per window or serial span; identical at every shard count.
struct SpeculationStats {
  std::uint64_t windows_committed = 0;
  // A failed window is a fault abort when its serial replay took a demand
  // fault, otherwise a hint abort (it consumed a migrate-on-touch mark).
  std::uint64_t windows_fault_aborted = 0;
  std::uint64_t windows_hint_aborted = 0;
  // Rounds the serial loop ran: setup epochs, failed-window replays, and
  // penalty spans. (The serial oracle counts only its setup rounds.)
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
  // benchmarks report. Metis-style allocation during the steady phase stays
  // included.
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
  // The paper's page metrics (Table 2) over the IBS page aggregates merged
  // across the whole run (mapping granularity), and how many pages those
  // aggregates hold. Filled once at run end by RecordPageMetrics; the map
  // itself stays with the Simulation (Simulation::cumulative_pages).
  double pamup_pct = 0.0;
  int nhp = 0;
  double psp_pct = 0.0;
  std::size_t sampled_pages = 0;
  double final_thp_coverage = 0.0;

  // Cell health (DESIGN.md Section 12.4): "ok", or "failed: <reason>" (the
  // runner's stub row for a cell that threw).
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
  // "workload@machine#seed" from the trace header when this run captured or
  // replayed a trace, identical for both (DESIGN.md §14); empty otherwise.
  std::string trace_source;
  // Buddy-allocator fragmentation telemetry at run end (filled on every
  // run): worst per-node fragmentation index, largest free order across
  // nodes, how many 2MB blocks the free lists could still serve, and how
  // many Alloc calls failed over the run.
  double frag_index_pct = 0.0;
  int buddy_largest_free_order = -1;
  std::uint64_t buddy_free_2m_blocks = 0;
  std::uint64_t buddy_alloc_failures = 0;

  // Engine telemetry, kept off ResultRow: the serial oracle runs no
  // windows, so its counts differ from the windowed engine's while its rows
  // do not.
  SpeculationStats speculation;

  // Appends a finished epoch's record and adds its counters to the totals.
  void AddEpoch(const EpochRecord& record, const EpochCounters& counters);
  // Fills the buddy-allocator telemetry from the run-end allocator state.
  void RecordAllocatorState(const PhysicalMemory& phys);
  // Fills PAMUP, NHP, PSP and the page count from the run's cumulative
  // page aggregates.
  void RecordPageMetrics(const PageAggMap& cumulative_pages);

  // --- Paper-metric helpers ----------------------------------------------
  double LarPct() const;
  double ImbalancePct() const;
  double WalkL2MissFrac() const;
  // Max over cores of fault-handler cycles / wall cycles, as a %, over the
  // steady-state epochs (the paper's benchmarks amortize their startup over
  // minutes; here the first-touch storm would otherwise dominate).
  double SteadyMaxFaultSharePct() const;
  // Max over cores of fault-handler time in milliseconds.
  double MaxFaultTimeMs(double clock_ghz) const;
  double PamupPct() const { return pamup_pct; }
  int Nhp() const { return nhp; }
  double PspPct() const { return psp_pct; }
  double RuntimeMs(double clock_ghz) const;
};

// Performance improvement of `run` over `baseline` in percent, the y-axis of
// Figures 1-5 ("perf. improvement relative to default Linux").
double ImprovementPct(const RunResult& baseline, const RunResult& run);

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_RUN_RESULT_H_
