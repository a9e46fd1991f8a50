// The experiment kernel: runs one workload on one simulated machine under one
// policy configuration and produces the run's cycle count plus every metric
// the paper reports (DESIGN.md Section 3 describes the epoch model).
#ifndef NUMALP_SRC_CORE_SIMULATION_H_
#define NUMALP_SRC_CORE_SIMULATION_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/carrefour/carrefour.h"
#include "src/common/rng.h"
#include "src/core/access_engine.h"
#include "src/core/carrefour_lp.h"
#include "src/core/config.h"
#include "src/core/run_result.h"
#include "src/hw/counters.h"
#include "src/hw/ibs.h"
#include "src/hw/interconnect.h"
#include "src/hw/mem_ctrl.h"
#include "src/hw/walker.h"
#include "src/mem/phys_mem.h"
#include "src/metrics/numa_metrics.h"
#include "src/metrics/sample_window.h"
#include "src/topo/topology.h"
#include "src/trace/trace_writer.h"
#include "src/vm/address_space.h"
#include "src/vm/migrate.h"
#include "src/vm/thp.h"
#include "src/workloads/access_source.h"
#include "src/workloads/workload.h"

namespace numalp {

class Simulation {
 public:
  Simulation(const Topology& topo, const WorkloadSpec& workload, const PolicyConfig& policy,
             const SimConfig& sim);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  RunResult Run();

  // The IBS page aggregates merged over the run (mapping granularity), from
  // which Run() computes RunResult's PAMUP, NHP and PSP; complete once Run()
  // has returned. Results keep only those scalars, so a caller that wants
  // the per-page listing reads it here.
  const PageAggMap& cumulative_pages() const { return cumulative_pages_; }

  // Effective intra-cell shard count after the oversubscription clamp
  // (DESIGN.md Section 10): host threads running the speculative windows.
  int shard_count() const { return engine_->shards(); }

 private:
  // Selects the engine's pure serial loop; test-only.
  friend class SerialEngine;

  // What one epoch's pipeline stages hand each other (DESIGN.md Section 3).
  struct EpochState {
    EpochRecord record;
    // Slowest core's cycles before policy overhead, and the measured mean
    // extra cost of one remote DRAM access (the reactive cost model's input).
    Cycles app_wall = 0;
    Cycles remote_dram_premium = 0;
    // The epoch's IBS samples and their page aggregates; `window_pages` is
    // the decision window folded to the current mapping granularity.
    std::vector<IbsSample> fresh;
    std::size_t fresh_count = 0;
    PageAggMap fresh_pages;
    PageAggMap window_pages;
    LpDecision decision;
    // The Execute stage's kernel page work: TLB shootdowns and cycles.
    std::vector<AccessEngine::PageShootdown> shootdowns;
    std::vector<AccessEngine::RangeShootdown> shootdown_ranges;
    Cycles kernel_cycles = 0;
    // The source's answers once the epoch's accesses ran, read before the
    // next epoch's BeginEpoch: its Done() and its munmap events.
    bool source_done = false;
    std::vector<RegionUnmapEvent> unmap_events;
  };

  // The epoch pipeline, called by Run() in this order.
  EpochState BeginEpoch(int epoch);
  // Rethrows a failed source BeginEpoch, drains (and so maps) the epoch's
  // region maps, joins the batch fill and feeds the capture.
  void GenerateAccesses(const EpochState& state, RunResult& result);
  // Records the source's end-of-epoch answers, then begins its next epoch
  // and starts that epoch's fill unless the run ends here.
  void StartNextEpoch(EpochState& state);
  void ResolveLatencies(EpochState& state);
  void Sample(EpochState& state);
  void Profile(EpochState& state);
  void Decide(EpochState& state);
  void Execute(EpochState& state);
  void Account(EpochState& state, RunResult& result);
  // Applies the epoch's munmap events; true when the source is done.
  bool EndEpoch(const EpochState& state, RunResult& result);

  // The source's BeginEpoch, then the engine's StartFill; an exception is
  // kept in next_ for GenerateAccesses.
  void BeginSourceEpoch();

  // Execute-stage passes.
  void SplitPages(const std::vector<std::pair<Addr, PageSize>>& pages, bool hot,
                  EpochState& state);
  void RunCarrefourPlan(EpochState& state);
  // Reactive re-promotion, then khugepaged.
  void Promote(EpochState& state);
  void ChargePromotion(const PromotionRecord& promo, EpochState& state);
  bool InPromoteBackoff(Addr window_base) const {
    return fault_plan_ != nullptr && fault_plan_->InPromoteBackoff(window_base);
  }

  Topology topo_;
  WorkloadSpec workload_spec_;
  PolicyConfig policy_;
  SimConfig sim_;
  // A placement policy runs: only then is the sample window maintained and
  // sampling overhead charged.
  bool placement_active_;

  PhysicalMemory phys_;
  ThpState thp_state_;
  std::unique_ptr<AddressSpace> address_space_;
  // A synthetic generator (Workload) or a trace replay (TraceWorkload).
  std::unique_ptr<AccessSource> workload_;
  // Trace capture (WorkloadSpec::capture_file, DESIGN.md §14).
  std::unique_ptr<trace::TraceWriter> capture_;
  // RunResult::trace_source when capturing or replaying.
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
  // Fault injection (DESIGN.md Section 12); null with faults off, which
  // every fault branch checks.
  std::unique_ptr<FaultPlan> fault_plan_;
  // Carrefour-plan execution stats for the LP realized-gain discount.
  std::uint64_t fault_mig_attempted_ = 0;
  std::uint64_t fault_mig_executed_ = 0;

  // Carrefour keeps per-page statistics for the lifetime of the run (the
  // kernel module never resets them); bound the window only as a safety cap.
  static constexpr std::size_t kSampleWindowEpochs = 512;

  PageAggMap cumulative_pages_;
  SampleWindow window_;
  // Hinting-fault marks the split pass leaves and the engine consumes.
  FlatSet<Addr> migrate_on_touch_;
  std::unique_ptr<AccessEngine> engine_;
  bool steady_transition_done_ = false;
  // The next epoch as far as it began while the current one still runs.
  struct NextEpoch {
    bool in_setup = true;      // !SetupDone() before its BeginEpoch
    std::exception_ptr error;  // its BeginEpoch threw; no fill started
  };
  NextEpoch next_;
};

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_SIMULATION_H_
