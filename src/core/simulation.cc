#include "src/core/simulation.h"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <utility>

#include "src/workloads/trace_workload.h"

namespace numalp {

namespace {

// Batched page-list accounting (DESIGN.md Section 8.4): one fixed setup and
// one shootdown broadcast per `migrate_batch_pages` pages, while the copied
// bytes accrue per page. Splits and promotions stay individually priced.
Cycles BatchedMigrateCycles(const CostModel& costs, std::uint64_t pages, std::uint64_t bytes) {
  if (pages == 0) {
    return 0;
  }
  const std::uint64_t batch = std::max<std::uint64_t>(1, costs.migrate_batch_pages);
  const std::uint64_t lists = (pages + batch - 1) / batch;
  return static_cast<Cycles>(lists) * (costs.migrate_fixed + costs.shootdown_per_op) +
         static_cast<Cycles>(costs.migrate_per_byte * static_cast<double>(bytes));
}

// Kernel page work runs on per-node worker threads (Section 4.3), so its
// wall-clock charge divides across the nodes that have CPUs.
Cycles KernelWallCycles(const Topology& topo, const CostModel& costs, Cycles kernel) {
  return static_cast<Cycles>(static_cast<double>(kernel) /
                             (static_cast<double>(topo.num_cpu_nodes()) *
                              costs.kernel_time_scale));
}

}  // namespace

Simulation::Simulation(const Topology& topo, const WorkloadSpec& workload,
                       const PolicyConfig& policy, const SimConfig& sim)
    : topo_(topo),
      workload_spec_(workload),
      policy_(policy),
      sim_(sim),
      placement_active_(policy_.use_carrefour || policy_.use_reactive ||
                        policy_.use_conservative),
      phys_(topo_),
      address_space_(std::make_unique<AddressSpace>(phys_, topo_, thp_state_)),
      walker_(sim_.walker),
      mem_ctrl_(sim_.mem_ctrl),
      interconnect_(sim_.interconnect, topo_),
      ibs_(topo_.num_nodes(), topo_.num_cores(), sim_.ibs_interval, sim_.seed ^ 0x1b5u),
      counters_(topo_.num_cores(), topo_.num_nodes()),
      policy_rng_(sim_.seed ^ 0x9e37u),
      carrefour_(policy_.carrefour, topo_.cpu_nodes(), sim_.seed ^ 0xc4fu),
      khugepaged_(*address_space_),
      window_(kSampleWindowEpochs) {
  thp_state_.alloc_enabled = policy_.initial_thp_alloc;
  thp_state_.promote_enabled = policy_.initial_thp_promote;
  // Fault injection (DESIGN.md Section 12) fragments the allocators before
  // the workload exists, so even the first-touch storm contends with it.
  if (sim_.faults.enabled()) {
    fault_plan_ = std::make_unique<FaultPlan>(sim_.faults, sim_.seed);
    fault_plan_->Prepare(phys_);
    address_space_->set_fault_plan(fault_plan_.get());
  }
  if (!workload_spec_.trace_file.empty()) {
    auto replay = std::make_unique<TraceWorkload>(workload_spec_.trace_file, *address_space_,
                                                  topo_.num_cores());
    trace_provenance_ = replay->header().Provenance();
    workload_ = std::move(replay);
  } else {
    workload_ = std::make_unique<Workload>(workload_spec_, *address_space_, topo_.num_cores(),
                                           sim_.seed);
  }
  if (!workload_spec_.capture_file.empty()) {
    trace::TraceHeader header;
    header.machine = topo_.name();
    header.workload = workload_spec_.name;
    header.seed = sim_.seed;
    header.threads = static_cast<std::uint32_t>(topo_.num_cores());
    header.accesses_per_thread_per_epoch =
        static_cast<std::uint32_t>(sim_.accesses_per_thread_per_epoch);
    for (int r = 0; r < workload_->num_regions(); ++r) {
      header.regions.push_back(workload_->region(r));
    }
    capture_ = std::make_unique<trace::TraceWriter>(workload_spec_.capture_file, header);
    if (trace_provenance_.empty()) {
      trace_provenance_ = header.Provenance();
    }
  }
  engine_ = std::make_unique<AccessEngine>(topo_, sim_, *address_space_, *workload_, counters_,
                                           ibs_, walker_, migrate_on_touch_);
  if (policy_.use_reactive || policy_.use_conservative) {
    lp_ = std::make_unique<CarrefourLp>(policy_, thp_state_);
  }
}

RunResult Simulation::Run() {
  RunResult result;
  result.workload = workload_spec_.name;
  result.machine = topo_.name();
  result.policy = policy_.kind;
  result.core_totals.resize(static_cast<std::size_t>(topo_.num_cores()));
  result.node_request_totals.assign(static_cast<std::size_t>(topo_.num_nodes()), 0);
  // A run that stops early — cancelled, or unwound by a stage's exception —
  // may leave the next epoch's fill in flight; join it before returning.
  struct FillJoin {
    AccessEngine& engine;
    ~FillJoin() { engine.AbandonFill(); }
  } fill_join{*engine_};
  if (sim_.max_epochs > 0) {
    next_.in_setup = !workload_->SetupDone();
    BeginSourceEpoch();
  }
  for (int epoch = 0; epoch < sim_.max_epochs; ++epoch) {
    // Watchdog cancellation only at epoch boundaries keeps a cancelled run a
    // deterministic prefix of the uncancelled one.
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      result.status = "deadline";
      break;
    }
    EpochState state = BeginEpoch(epoch);
    GenerateAccesses(state, result);
    engine_->Execute(state.record.in_setup);
    StartNextEpoch(state);
    ResolveLatencies(state);
    Sample(state);
    Profile(state);
    Decide(state);
    Execute(state);
    Account(state, result);
    if (EndEpoch(state, result)) {
      result.completed = true;
      break;
    }
  }
  result.final_thp_coverage = address_space_->LargePageCoverage();
  if (fault_plan_ != nullptr) {
    const FaultCounters& fc = fault_plan_->counters();
    result.fault_alloc_failures = fc.alloc_failures;
    result.fault_migration_failures = fc.migration_failures;
    result.fault_split_failures = fc.split_failures;
    result.fault_truncated_plans = fc.truncated_plans;
    result.fault_pressure_epochs = fc.pressure_epochs;
    result.fault_promote_backoffs = fc.promote_backoffs;
    result.fault_retried_migrations = carrefour_.retried_migrations();
    result.fault_abandoned_pages = carrefour_.abandoned_pages();
  }
  result.thp_fallback_faults = address_space_->thp_fallback_faults();
  result.trace_source = trace_provenance_;
  if (capture_ != nullptr) {
    capture_->Finish(result.completed);
  }
  result.RecordAllocatorState(phys_);
  result.speculation = engine_->speculation();
  result.RecordPageMetrics(cumulative_pages_);
  return result;
}

Simulation::EpochState Simulation::BeginEpoch(int epoch) {
  if (fault_plan_ != nullptr) {
    fault_plan_->BeginEpoch(epoch, phys_);
  }
  counters_.Reset();
  EpochState state;
  state.record.epoch = epoch;
  state.record.in_setup = next_.in_setup;
  if (!state.record.in_setup && !steady_transition_done_) {
    // The first-touch storm is over: the policies decide on steady state,
    // as the paper's benchmarks measure it (DESIGN.md §8).
    steady_transition_done_ = true;
    window_.Clear();
    carrefour_.ForgetAll();
  }
  return state;
}

void Simulation::BeginSourceEpoch() {
  try {
    workload_->BeginEpoch();
  } catch (...) {
    // Reported when the epoch would have run, so a cancellation that comes
    // first still wins (GenerateAccesses).
    next_.error = std::current_exception();
    return;
  }
  engine_->StartFill();
}

void Simulation::GenerateAccesses(const EpochState& state, RunResult& result) {
  if (next_.error != nullptr) {
    std::rethrow_exception(std::exchange(next_.error, nullptr));
  }
  // Trace mmap churn: draining the map events maps the source's new regions
  // at this serial point (access_source.h), after the previous epoch's
  // unmaps; they enter the counters and the capture.
  std::vector<RegionMapEvent> map_events;
  workload_->DrainMapEvents(&map_events);
  result.region_maps += map_events.size();
  engine_->FinishFill();
  if (capture_ != nullptr) {
    // The serial capture point, invariant across jobs × shards (DESIGN.md §14).
    capture_->BeginEpoch(state.record.in_setup);
    for (const auto& event : map_events) {
      capture_->RegionMap(event);
    }
    for (int t = 0; t < topo_.num_cores(); ++t) {
      capture_->Batch(t, engine_->batch(t));
    }
  }
}

void Simulation::StartNextEpoch(EpochState& state) {
  // Read everything this epoch's stages still need from the source before
  // its BeginEpoch moves it on: the next epoch's batches then fill on the
  // pool's helpers while this epoch's serial stages run (DESIGN.md §3).
  state.source_done = workload_->Done();
  next_.in_setup = !workload_->SetupDone();
  workload_->DrainUnmapEvents(&state.unmap_events);
  if (!state.source_done && state.record.epoch + 1 < sim_.max_epochs) {
    BeginSourceEpoch();
  }
}

void Simulation::ResolveLatencies(EpochState& state) {
  const std::uint64_t ctrl_capacity = static_cast<std::uint64_t>(
      sim_.mem_ctrl.capacity_fraction * static_cast<double>(topo_.num_cores()) *
      static_cast<double>(sim_.accesses_per_thread_per_epoch) /
      static_cast<double>(topo_.num_nodes()));
  state.remote_dram_premium = counters_.ResolveDramCycles(
      topo_, mem_ctrl_.Latencies(counters_.node_requests, ctrl_capacity),
      interconnect_.RemoteLatencies(counters_.node_incoming_remote), sim_.interconnect.per_hop);
  for (const auto& core : counters_.cores) {
    state.app_wall = std::max(state.app_wall, core.total_cycles());
  }
}

void Simulation::Sample(EpochState& state) {
  state.fresh = ibs_.Drain();
  state.fresh_count = state.fresh.size();
  state.fresh_pages = AggregateSamples(state.fresh, *address_space_, AggGranularity::kMapping);
  state.record.metrics = ComputeNumaMetrics(counters_, state.fresh_pages,
                                            std::max<Cycles>(state.app_wall, 1));
  MergePageAggs(cumulative_pages_, state.fresh_pages);
}

void Simulation::Profile(EpochState& state) {
  // The decision window of recent epochs' samples (DESIGN.md §7.1); runs
  // without a placement policy never read it.
  if (!placement_active_) {
    return;
  }
  window_.PushEpoch(std::move(state.fresh));
  state.window_pages = window_.FoldToMapping(*address_space_);
}

void Simulation::Decide(EpochState& state) {
  if (lp_ == nullptr) {
    return;
  }
  LpObservation observation;
  observation.walk_l2_miss_frac = state.record.metrics.walk_l2_miss_frac;
  observation.max_fault_time_share = state.record.metrics.max_fault_time_share;
  // LAR estimates use the epoch's own samples, over CPU nodes only (the
  // interleave targets and sample sources); placement uses the window.
  observation.lar = EstimateLar(window_.latest_samples(), *address_space_, state.fresh_pages,
                                topo_.num_cpu_nodes());
  observation.mapping_pages = &state.window_pages;
  observation.num_nodes = topo_.num_cpu_nodes();
  observation.window = &window_;
  // Cost-model inputs (DESIGN.md Section 8).
  observation.costs.epoch_accesses = counters_.TotalAccesses();
  observation.costs.epoch_dram_accesses = counters_.TotalDram();
  observation.costs.epoch_wall = state.app_wall;
  observation.costs.walk_cycles_4k = walker_.ExpectedWalkCycles(
      PageSize::k4K, address_space_->page_table().table_bytes());
  observation.costs.remote_dram_penalty = state.remote_dram_premium;
  observation.costs.split_op_cycles = sim_.costs.split_fixed + sim_.costs.shootdown_per_op;
  observation.costs.tlb_4k_reach_pages = static_cast<std::uint64_t>(sim_.tlb.l2_sets) *
                                         static_cast<std::uint64_t>(sim_.tlb.l2_ways) *
                                         static_cast<std::uint64_t>(topo_.num_cores());
  // Realized-gain discount: the share of planned migrations that executed.
  if (fault_plan_ != nullptr && fault_mig_attempted_ > 0) {
    observation.migration_success_rate =
        static_cast<double>(fault_mig_executed_) / static_cast<double>(fault_mig_attempted_);
  }
  state.record.est_current_lar = observation.lar.current_pct;
  state.record.est_carrefour_lar = observation.lar.carrefour_pct;
  state.record.est_split_lar = observation.lar.carrefour_split_pct;
  state.decision = lp_->Step(observation);
}

void Simulation::Execute(EpochState& state) {
  // Algorithm 1: hot pages (line 19) before shared ones (lines 15-18), so a
  // hot shared page keeps its interleave; then Carrefour (line 20). The
  // promotions land last, for next epoch's fold.
  SplitPages(state.decision.split_hot, /*hot=*/true, state);
  SplitPages(state.decision.split_shared, /*hot=*/false, state);
  RunCarrefourPlan(state);
  Promote(state);
  engine_->Shootdown(state.shootdowns, state.shootdown_ranges);
}

void Simulation::SplitPages(const std::vector<std::pair<Addr, PageSize>>& pages, bool hot,
                            EpochState& state) {
  // Hot pages interleave across CPU nodes only (DESIGN.md Section 13).
  const std::vector<int>& cpu = topo_.cpu_nodes();
  for (const auto& [base, size] : pages) {
    // An injected failure leaves the page for next epoch's decision.
    if (fault_plan_ != nullptr && fault_plan_->FailSplit()) {
      continue;
    }
    if (!address_space_->SplitLargePage(base)) {
      continue;
    }
    state.kernel_cycles += sim_.costs.split_fixed + sim_.costs.shootdown_per_op;
    ++state.record.splits;
    carrefour_.Forget(base);
    if (hot) {
      // One ranged shootdown covers the large page and every moved piece.
      state.shootdown_ranges.emplace_back(base, BytesOf(size));
    } else {
      state.shootdowns.emplace_back(base, size);
    }
    const std::uint64_t step = BytesOf(size == PageSize::k1G ? PageSize::k2M : PageSize::k4K);
    std::uint64_t moved_pages = 0;
    std::uint64_t moved_bytes = 0;
    for (Addr p = base; p < base + BytesOf(size); p += step) {
      std::optional<int> target;
      if (hot) {
        target = cpu[static_cast<std::size_t>(
            policy_rng_.Uniform(static_cast<std::uint64_t>(cpu.size())))];
      } else {
        // Split-time placement (DESIGN.md Section 8.4): sampled pieces move
        // to their majority node now, with no per-piece shootdowns (they have
        // no cached translations yet); the hint mark lets the next toucher
        // correct a misplacement.
        migrate_on_touch_.Insert(p);
        target = window_.MajorityReqNodeIn(p, step, sim_.costs.split_place_min_samples);
      }
      if (!target.has_value()) {
        continue;
      }
      if (auto moved = address_space_->MigratePage(p, *target)) {
        ++moved_pages;
        moved_bytes += moved->bytes;
        ++state.record.migrations;
      }
    }
    state.kernel_cycles += BatchedMigrateCycles(sim_.costs, moved_pages, moved_bytes);
  }
}

void Simulation::RunCarrefourPlan(EpochState& state) {
  if (!policy_.use_carrefour) {
    return;
  }
  const std::uint64_t accesses = counters_.TotalAccesses();
  const double dram_rate =
      accesses == 0 ? 0.0
                    : static_cast<double>(counters_.TotalDram()) / static_cast<double>(accesses);
  const NumaMetrics& metrics = state.record.metrics;
  if (!carrefour_.ShouldRun(metrics.lar_pct, metrics.imbalance_pct, dram_rate)) {
    return;
  }
  if (state.record.splits > 0) {
    // Re-fold so the plan sees this epoch's post-split granularity.
    state.window_pages = window_.FoldToMapping(*address_space_);
  }
  const int epoch = state.record.epoch;
  auto plan = carrefour_.Plan(state.window_pages, epoch);
  if (fault_plan_ != nullptr) {
    fault_mig_attempted_ += plan.size();
    // A truncated plan's tail is re-queued through the failure backoff.
    const std::size_t budget = fault_plan_->PlanBudget(plan.size());
    if (budget < plan.size()) {
      for (std::size_t i = budget; i < plan.size(); ++i) {
        carrefour_.NoteMigrationFailure(plan[i].page_base, epoch);
      }
      plan.resize(budget);
    }
  }
  std::uint64_t moved_pages = 0;
  std::uint64_t moved_bytes = 0;
  std::uint64_t failed_attempts = 0;
  for (const CarrefourAction& action : plan) {
    if (auto moved = address_space_->MigratePage(action.page_base, action.target_node)) {
      ++moved_pages;
      moved_bytes += moved->bytes;
      ++state.record.migrations;
      state.shootdowns.emplace_back(moved->page_base, moved->size);
      if (fault_plan_ != nullptr) {
        ++fault_mig_executed_;
        carrefour_.NoteMigrationSuccess(action.page_base);
      }
    } else if (fault_plan_ != nullptr) {
      // Actionable failures leave the page at this base, off-target.
      const auto mapping = address_space_->Translate(action.page_base);
      if (mapping.has_value() && mapping->page_base == action.page_base &&
          mapping->node != action.target_node) {
        carrefour_.NoteMigrationFailure(action.page_base, epoch);
        ++failed_attempts;
      }
    }
  }
  // Failed attempts still paid their list setup and shootdown broadcast.
  state.kernel_cycles += BatchedMigrateCycles(sim_.costs, moved_pages, moved_bytes) +
                         BatchedMigrateCycles(sim_.costs, failed_attempts, 0);
}

void Simulation::Promote(EpochState& state) {
  // Reactive re-promotion (DESIGN.md Section 8), under khugepaged's rule.
  for (const Addr base : state.decision.repromote_windows) {
    if (InPromoteBackoff(base)) {
      continue;
    }
    const auto target = WindowPromotionTarget(*address_space_, base);
    if (!target.has_value()) {
      continue;
    }
    if (auto promo = address_space_->PromoteWindow(base, *target)) {
      ChargePromotion(*promo, state);
      // Pending lazy migrations must not move the consolidated page.
      carrefour_.ForgetRange(base, kBytes2M);
      if (!migrate_on_touch_.empty()) {
        for (Addr p = base; p < base + kBytes2M; p += kBytes4K) {
          migrate_on_touch_.Erase(p);
        }
      }
    }
  }
  // khugepaged runs only while THP is enabled (splitting disables
  // allocation, parking the scanner, which would otherwise undo every split)
  // and skips windows whose pieces still await hinting-fault placement.
  if (!thp_state_.promote_enabled || !thp_state_.alloc_enabled) {
    return;
  }
  const auto skip_in_flux = [this](Addr base) {
    if (InPromoteBackoff(base)) {
      return true;
    }
    if (migrate_on_touch_.empty()) {
      return false;
    }
    for (Addr p = base; p < base + kBytes2M; p += kBytes4K) {
      if (migrate_on_touch_.Contains(p)) {
        return true;
      }
    }
    return false;
  };
  for (const PromotionRecord& promo :
       khugepaged_.Scan(sim_.promote_scan_windows, sim_.promote_max_per_epoch, skip_in_flux)) {
    ChargePromotion(promo, state);
  }
}

void Simulation::ChargePromotion(const PromotionRecord& promo, EpochState& state) {
  state.kernel_cycles +=
      sim_.costs.promote_fixed +
      static_cast<Cycles>(sim_.costs.promote_per_byte * static_cast<double>(promo.bytes_copied)) +
      sim_.costs.shootdown_per_op;
  ++state.record.promotions;
  state.shootdown_ranges.emplace_back(promo.window_base, kBytes2M);
}

void Simulation::Account(EpochState& state, RunResult& result) {
  EpochRecord& record = state.record;
  // A fixed policy charge plus IBS interrupt time, paid on each core.
  Cycles overhead = 0;
  if (placement_active_) {
    overhead += sim_.costs.policy_fixed_per_epoch +
                static_cast<Cycles>(state.fresh_count) * sim_.costs.per_ibs_sample /
                    static_cast<Cycles>(topo_.num_cores());
  }
  overhead += KernelWallCycles(topo_, sim_.costs, state.kernel_cycles);
  // Hinting-fault migrations, converted separately: merging the two
  // divisions would change rounding.
  const auto [hint_cycles, hint_pages] = engine_->TakeHintMigrations();
  overhead += KernelWallCycles(topo_, sim_.costs,
                               hint_cycles + BatchedMigrateCycles(sim_.costs, hint_pages, 0));
  record.migrations += hint_pages;
  record.wall = state.app_wall + overhead;
  record.policy_overhead = overhead;
  record.thp_coverage = address_space_->LargePageCoverage();
  record.thp_alloc_enabled = thp_state_.alloc_enabled;
  record.thp_promote_enabled = thp_state_.promote_enabled;
  result.AddEpoch(record, counters_);
}

bool Simulation::EndEpoch(const EpochState& state, RunResult& result) {
  // munmap churn returns frames to the buddy allocator (DESIGN.md §14).
  for (const auto& event : state.unmap_events) {
    if (capture_ != nullptr) {
      capture_->RegionUnmap(event);
    }
    const AddressSpace::UnmapStats stats = address_space_->MunmapRange(event.base, event.bytes);
    result.unmapped_bytes += stats.freed_bytes;
    ++result.region_unmaps;
    engine_->Shootdown({}, std::array{AccessEngine::RangeShootdown{event.base, event.bytes}});
  }
  if (capture_ != nullptr) {
    capture_->EndEpoch(state.source_done);
  }
  return state.source_done;
}

}  // namespace numalp
