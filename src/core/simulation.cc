#include "src/core/simulation.h"

#include <algorithm>
#include <cassert>

#include "src/common/log.h"
#include "src/common/stats.h"
#include "src/workloads/trace_workload.h"

namespace numalp {

namespace {

void MergePages(PageAggMap& into, const PageAggMap& from) {
  for (const auto& [base, agg] : from) {
    PageAgg& target = into[base];
    target.size = agg.size;
    target.home_node = agg.home_node;
    target.total += agg.total;
    target.dram += agg.dram;
    target.core_mask |= agg.core_mask;
    for (int n = 0; n < kMaxNodes; ++n) {
      target.req_node_counts[static_cast<std::size_t>(n)] +=
          agg.req_node_counts[static_cast<std::size_t>(n)];
    }
  }
}

}  // namespace

double RunResult::LarPct() const {
  const std::uint64_t dram = totals.dram_accesses();
  return dram == 0
             ? 100.0
             : 100.0 * static_cast<double>(totals.dram_local) / static_cast<double>(dram);
}

double RunResult::ImbalancePct() const {
  return numalp::ImbalancePct(std::span<const std::uint64_t>(node_request_totals));
}

double RunResult::WalkL2MissFrac() const {
  const std::uint64_t walk = totals.walk_l2_miss;
  const std::uint64_t data = totals.dram_accesses();
  const std::uint64_t sum = walk + data;
  return sum == 0 ? 0.0 : static_cast<double>(walk) / static_cast<double>(sum);
}

double RunResult::MaxFaultTimeSharePct() const {
  if (total_cycles == 0) {
    return 0.0;
  }
  Cycles max_fault = 0;
  for (const auto& core : core_totals) {
    max_fault = std::max(max_fault, core.fault_cycles);
  }
  return 100.0 * static_cast<double>(max_fault) / static_cast<double>(total_cycles);
}

double RunResult::SteadyMaxFaultSharePct() const {
  double weighted = 0.0;
  Cycles wall = 0;
  for (const EpochRecord& record : history) {
    if (record.in_setup) {
      continue;
    }
    weighted += record.metrics.max_fault_time_share * static_cast<double>(record.wall);
    wall += record.wall;
  }
  return wall == 0 ? 0.0 : 100.0 * weighted / static_cast<double>(wall);
}

double RunResult::MaxFaultTimeMs(double clock_ghz) const {
  Cycles max_fault = 0;
  for (const auto& core : core_totals) {
    max_fault = std::max(max_fault, core.fault_cycles);
  }
  return static_cast<double>(max_fault) / (clock_ghz * 1e6);
}

double RunResult::PamupPct() const { return numalp::PamupPct(cumulative_pages); }

int RunResult::Nhp() const { return CountHotPages(cumulative_pages); }

double RunResult::PspPct() const { return numalp::PspPct(cumulative_pages); }

double RunResult::RuntimeMs(double clock_ghz) const {
  return static_cast<double>(total_cycles) / (clock_ghz * 1e6);
}

double ImprovementPct(const RunResult& baseline, const RunResult& run) {
  const Cycles base = baseline.measured_cycles > 0 ? baseline.measured_cycles
                                                   : baseline.total_cycles;
  const Cycles mine = run.measured_cycles > 0 ? run.measured_cycles : run.total_cycles;
  if (mine == 0) {
    return 0.0;
  }
  return 100.0 * (static_cast<double>(base) / static_cast<double>(mine) - 1.0);
}

Simulation::Simulation(const Topology& topo, const WorkloadSpec& workload,
                       const PolicyConfig& policy, const SimConfig& sim)
    : topo_(topo),
      workload_spec_(workload),
      policy_(policy),
      sim_(sim),
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
      window_(kSampleWindowEpochs, sim_.profile_mode, sim_.profile_sketch) {
  // The epoch presketch exists only where it is consumed: sketch profile
  // mode and a policy stack that actually pushes the window. Both are fixed
  // at construction, so every shard count and every epoch take the same
  // branch — the determinism argument needs that.
  const bool window_consumed =
      policy_.use_carrefour || policy_.use_reactive || policy_.use_conservative;
  presketch_enabled_ = sim_.profile_mode == ProfileMode::kSketch && window_consumed;
  if (presketch_enabled_) {
    epoch_presketch_ =
        CountSketch(sim_.profile_sketch.sketch_rows, sim_.profile_sketch.sketch_width);
  }
  thp_state_.alloc_enabled = policy_.initial_thp_alloc;
  thp_state_.promote_enabled = policy_.initial_thp_promote;
  // Fault injection (DESIGN.md Section 12): the plan pins its fragmentation
  // into the buddy allocators *before* the workload exists, so even the
  // setup phase's first-touch storm contends with it — exactly like a
  // machine that fragmented before the application launched. With faults
  // off, fault_plan_ stays null and no fault branch below ever draws from
  // an RNG or touches allocator state.
  if (sim_.faults.enabled()) {
    fault_plan_ = std::make_unique<FaultPlan>(sim_.faults, sim_.seed);
    fault_plan_->Prepare(phys_);
    address_space_->set_fault_plan(fault_plan_.get());
  }
  // The access source: trace replay when the spec names a trace file,
  // otherwise the synthetic generator.
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
  shard_ctx_.reserve(static_cast<std::size_t>(topo_.num_cores()));
  Rng seeder(sim_.seed ^ 0x7777u);
  for (int c = 0; c < topo_.num_cores(); ++c) {
    shard_ctx_.emplace_back(sim_.tlb, topo_.num_nodes(), c, topo_.NodeOfCore(c));
    shard_ctx_.back().rng = seeder.Fork();
  }
  shard_pool_ = std::make_unique<ShardPool>(
      ResolveShardCount(sim_.shards, sim_.shards_force, topo_.num_cores()));
  region_mlp_.reserve(static_cast<std::size_t>(workload_->num_regions()));
  region_intensity_.reserve(static_cast<std::size_t>(workload_->num_regions()));
  for (int r = 0; r < workload_->num_regions(); ++r) {
    const SourceRegion region = workload_->region(r);
    region_mlp_.push_back(region.mlp);
    region_intensity_.push_back(region.dram_intensity);
  }
  if (policy_.use_reactive || policy_.use_conservative) {
    lp_ = std::make_unique<CarrefourLp>(policy_, thp_state_);
  }
}

Simulation::~Simulation() = default;

int Simulation::CoreOfThread(int thread) const {
  // Round-robin thread pinning across CPU-bearing nodes (the natural Linux
  // scatter the paper's workloads run under): thread t -> node t % N. On
  // all-CPU machines cpu_nodes() is 0..N-1 with first_core = node *
  // cores_per_node, so this is exactly the seed's
  // (t % nodes) * cores_per_node + t / nodes; far-memory nodes have no
  // cores and simply never appear in the rotation.
  const std::vector<int>& cpu = topo_.cpu_nodes();
  const int n = static_cast<int>(cpu.size());
  const NodeInfo& node = topo_.node(cpu[static_cast<std::size_t>(thread % n)]);
  return node.first_core + thread / n;
}

template <bool kSpeculative>
bool Simulation::ProcessSlice(ShardContext& ctx, const WorkloadAccess* accesses,
                              std::size_t count, std::size_t base_index) {
  // Per-core state hoisted once per slice instead of re-resolved per access;
  // the counters the common (TLB-hit) path touches, the RNG state and the
  // IBS countdown additionally live in locals for the slice, so the loop's
  // steady state runs register-to-register (the sums written back are the
  // same integers the per-access stores accumulated).
  const int core = ctx.core;
  const int node = ctx.node;
  CoreCounters& cc = counters_.cores[static_cast<std::size_t>(core)];
  Rng rng = ctx.rng;
  Tlb& tlb = ctx.tlb;
  AddressSpace::TranslationCache& translate_cache = ctx.translate_cache;
  // Speculative slices redirect the *shared* per-node counters into the
  // context's delta scratch; the commit folds them in canonical core order
  // (they are integer sums — fold order is the serial order).
  std::uint64_t* node_requests = kSpeculative ? ctx.spec_node_requests.data()
                                              : counters_.node_requests.data();
  std::uint64_t* node_incoming_remote = kSpeculative
                                            ? ctx.spec_node_incoming_remote.data()
                                            : counters_.node_incoming_remote.data();
  std::uint64_t* core_requests =
      counters_.core_node_requests[static_cast<std::size_t>(core)].data();
  const double* region_intensity = region_intensity_.data();
  const Cycles cpu_per_access = sim_.costs.cpu_per_access;
  std::uint64_t ibs_countdown = ibs_.countdown(core);
  const std::uint64_t ibs_interval = ibs_.interval();
  Cycles exec_cycles = 0;
  std::uint64_t dram_local = 0;
  std::uint64_t dram_remote = 0;

  for (std::size_t i = 0; i < count; ++i) {
    const WorkloadAccess& access = accesses[i];
    Cycles cost = cpu_per_access;

    int home = 0;
    const TlbLookup hit = tlb.Lookup(access.va);
    if (hit.level == TlbHitLevel::kL1) {
      home = hit.node;
    } else if (hit.level == TlbHitLevel::kL2) {
      ++cc.tlb_l1_miss;
      ++cc.tlb_l2_hit;
      cost += sim_.costs.tlb_l2_hit;
      home = hit.node;
    } else {
      ++cc.tlb_l1_miss;
      auto mapping = address_space_->Translate(access.va, translate_cache);
      if (!mapping.has_value()) {
        // Demand fault: the first shared-state mutation a slice can make —
        // the new mapping, the first-touch placement race and the
        // page-table growth (which feeds every core's walk-miss draws) must
        // be globally visible in program order. A speculative slice stops
        // *before* mutating anything; the window is rolled back and
        // replayed serially.
        if constexpr (kSpeculative) {
          return false;
        }
        const TouchResult touch = address_space_->Touch(access.va, node);
        const FaultInfo& fault = *touch.fault;
        switch (fault.size) {
          case PageSize::k4K:
            ++cc.faults_4k;
            break;
          case PageSize::k2M:
            ++cc.faults_2m;
            break;
          case PageSize::k1G:
            ++cc.faults_1g;
            break;
        }
        cc.fault_bytes += fault.bytes;
        FaultCycleParts& parts = ctx.fault_parts;
        parts.fixed += sim_.costs.fault_fixed;
        parts.zero += static_cast<Cycles>(sim_.costs.fault_zero_per_byte *
                                          static_cast<double>(fault.bytes));
        mapping = touch.mapping;
      }
      if (!migrate_on_touch_.empty()) {
        const Addr piece = AlignDown(access.va, BytesOf(mapping->size));
        if constexpr (kSpeculative) {
          // A hint-mark hit consumes the mark (and may migrate the piece) —
          // shared mutations. A miss is exactly the serial Erase-returns-
          // false path: no mutation, so speculation may continue.
          if (migrate_on_touch_.Contains(piece)) {
            return false;
          }
        } else if (migrate_on_touch_.Erase(piece)) {
          if (mapping->node != node) {
            if (auto moved = address_space_->MigratePage(piece, node)) {
              cost += sim_.costs.fault_fixed / 2;  // hinting fault on this core
              // Kernel-side cost: the copied bytes accrue per page; the fixed
              // setup charge is applied per batch at the epoch boundary (the
              // per-node worker migrates its hinting-fault backlog as batched
              // page lists, not one syscall-priced operation per page).
              hint_kernel_cycles_ += static_cast<Cycles>(sim_.costs.migrate_per_byte *
                                                         static_cast<double>(moved->bytes));
              ++hint_migrations_;
              mapping = address_space_->Translate(access.va, translate_cache);
            }
          }
        }
      }
      ++cc.tlb_walks;
      const WalkResult walk =
          walker_.Walk(mapping->size, address_space_->page_table().table_bytes(), rng);
      const double mlp = region_mlp_[access.region];
      cost += mlp > 1.0 ? static_cast<Cycles>(static_cast<double>(walk.cycles) / mlp)
                        : walk.cycles;
      if (walk.l2_miss) {
        ++cc.walk_l2_miss;
      }
      tlb.Insert(mapping->page_base, mapping->size, mapping->pfn, mapping->node);
      home = mapping->node;
    }

    // Does this access reach DRAM? (Per-region cache abstraction.)
    const double intensity = region_intensity[access.region];
    const bool dram = rng.Bernoulli(intensity);
    if (dram) {
      ++node_requests[static_cast<std::size_t>(home)];
      ++core_requests[static_cast<std::size_t>(home)];
      if (home == node) {
        ++dram_local;
      } else {
        ++dram_remote;
        ++node_incoming_remote[static_cast<std::size_t>(home)];
      }
    }
    if (--ibs_countdown == 0) {
      ibs_countdown = ibs_interval;
      if constexpr (kSpeculative) {
        // The engine's per-node sample stores are shared; queue the sample
        // with its absolute access index and let the apply phase replay it
        // in serial (round, thread) order.
        ctx.pending_samples.push_back(
            ShardContext::PendingSample{access.va, base_index + i, home, dram});
        if (presketch_enabled_) {
          ctx.spec_sketch_pages.push_back(AlignDown(access.va, kBytes4K));
        }
      } else {
        ibs_.Sample(access.va, core, node, home, dram);
        if (presketch_enabled_) {
          epoch_presketch_.Add(AlignDown(access.va, kBytes4K), +1);
        }
      }
    }
    exec_cycles += cost;
  }

  cc.accesses += count;
  cc.exec_cycles += exec_cycles;
  cc.dram_local += dram_local;
  cc.dram_remote += dram_remote;
  ibs_.countdown(core) = ibs_countdown;
  ctx.rng = rng;
  return true;
}

void Simulation::FillBatches() {
  const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
  const int cores = topo_.num_cores();
  const int shards = shard_pool_->shards();
  shard_pool_->Run([&](int worker) {
    for (int t = worker; t < cores; t += shards) {
      auto& batch = shard_ctx_[static_cast<std::size_t>(CoreOfThread(t))].batch;
      workload_->FillBatch(t, accesses, batch);
    }
  });
}

void Simulation::ExecuteEpochAccesses(bool epoch_in_setup) {
  const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
  const std::size_t num_rounds = (accesses + kSliceAccesses - 1) / kSliceAccesses;
  // Setup epochs are one long first-touch storm: nearly every window would
  // abort on a fault, so don't bother speculating. This is a property of the
  // simulation state, not of the shard count — every shard count takes the
  // same branch here, which the determinism argument needs. The serial
  // oracle (tests/oracles/serial_engine.h) runs every epoch this way.
  if (epoch_in_setup || pure_serial_) {
    RunRoundsSerial(0, num_rounds);
    if (epoch_in_setup) {
      speculation_.setup_rounds += num_rounds;
    }
    return;
  }
  std::size_t round = 0;
  while (round < num_rounds) {
    if (serial_penalty_rounds_ > 0) {
      const std::size_t span = std::min(serial_penalty_rounds_, num_rounds - round);
      RunRoundsSerial(round, round + span);
      speculation_.penalty_rounds += span;
      serial_penalty_rounds_ -= span;
      round += span;
      continue;
    }
    const std::size_t span = std::min(window_rounds_, num_rounds - round);
    if (TrySpeculativeWindow(round, round + span)) {
      ++speculation_.windows_committed;
      window_rounds_ = std::min(kMaxWindowRounds, window_rounds_ * 2);
    } else {
      // Replay the window with the unchanged serial engine, then stay serial
      // for a penalty span: aborts cluster (fault bursts, post-split lazy
      // placement), and a failed window costs a full snapshot + partial run
      // + rollback on top of the replay.
      const std::uint64_t faults_before = counters_.TotalFaults();
      RunRoundsSerial(round, round + span);
      ++(counters_.TotalFaults() > faults_before ? speculation_.windows_fault_aborted
                                                 : speculation_.windows_hint_aborted);
      speculation_.replay_rounds += span;
      serial_penalty_rounds_ = 4 * window_rounds_;
      window_rounds_ = std::max(kMinWindowRounds, window_rounds_ / 2);
    }
    round += span;
  }
}

void Simulation::RunRoundsSerial(std::size_t first_round, std::size_t last_round) {
  const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
  for (std::size_t r = first_round; r < last_round; ++r) {
    const std::size_t offset = r * kSliceAccesses;
    const std::size_t slice_end = std::min(offset + kSliceAccesses, accesses);
    for (int t = 0; t < topo_.num_cores(); ++t) {
      ShardContext& ctx = shard_ctx_[static_cast<std::size_t>(CoreOfThread(t))];
      const std::size_t end = std::min(slice_end, ctx.batch.size());
      if (offset < end) {
        ProcessSlice<false>(ctx, ctx.batch.data() + offset, end - offset, offset);
      }
    }
  }
}

bool Simulation::TrySpeculativeWindow(std::size_t first_round, std::size_t last_round) {
  spec_failed_.store(false, std::memory_order_relaxed);
  const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
  const std::size_t offset = first_round * kSliceAccesses;
  const std::size_t window_end = std::min(last_round * kSliceAccesses, accesses);
  const int cores = topo_.num_cores();
  const int shards = shard_pool_->shards();
  shard_pool_->Run([&](int worker) {
    // Snapshot every assigned core before running any of them: a failed
    // window restores all contexts, including ones this worker never
    // started (their snapshot equals their live state — restoring is a
    // no-op, which keeps the rollback branch-free).
    for (int t = worker; t < cores; t += shards) {
      SnapshotShard(shard_ctx_[static_cast<std::size_t>(CoreOfThread(t))]);
    }
    for (int t = worker; t < cores; t += shards) {
      if (spec_failed_.load(std::memory_order_relaxed)) {
        return;  // early bail: the window is already doomed
      }
      ShardContext& ctx = shard_ctx_[static_cast<std::size_t>(CoreOfThread(t))];
      const std::size_t end = std::min(window_end, ctx.batch.size());
      if (offset >= end) {
        continue;
      }
      // The whole window as one contiguous mega-slice: with no shared-state
      // mutation inside the window, a thread's consecutive serial slices
      // see exactly the state this single call sees, so the concatenation
      // is access-for-access identical.
      if (!ProcessSlice<true>(ctx, ctx.batch.data() + offset, end - offset, offset)) {
        spec_failed_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (spec_failed_.load(std::memory_order_relaxed)) {
    for (ShardContext& ctx : shard_ctx_) {
      RestoreShard(ctx);
    }
    return false;
  }
  CommitWindow(first_round, last_round);
  return true;
}

void Simulation::SnapshotShard(ShardContext& ctx) {
  ctx.tlb_backup = ctx.tlb;
  ctx.rng_backup = ctx.rng;
  ctx.cc_backup = counters_.cores[static_cast<std::size_t>(ctx.core)];
  ctx.core_node_requests_backup = counters_.core_node_requests[static_cast<std::size_t>(ctx.core)];
  ctx.ibs_countdown_backup = ibs_.countdown(ctx.core);
}

void Simulation::RestoreShard(ShardContext& ctx) {
  ctx.tlb = ctx.tlb_backup;
  ctx.rng = ctx.rng_backup;
  counters_.cores[static_cast<std::size_t>(ctx.core)] = ctx.cc_backup;
  counters_.core_node_requests[static_cast<std::size_t>(ctx.core)] = ctx.core_node_requests_backup;
  ibs_.countdown(ctx.core) = ctx.ibs_countdown_backup;
  std::fill(ctx.spec_node_requests.begin(), ctx.spec_node_requests.end(), 0);
  std::fill(ctx.spec_node_incoming_remote.begin(), ctx.spec_node_incoming_remote.end(), 0);
  ctx.pending_samples.clear();
  ctx.pending_cursor = 0;
  ctx.spec_sketch_pages.clear();
}

void Simulation::CommitWindow(std::size_t first_round, std::size_t last_round) {
  // Fold the shared-counter deltas. These are integer sums, so any fold
  // order produces the serial totals; canonical core order keeps it
  // auditable.
  for (ShardContext& ctx : shard_ctx_) {
    for (int n = 0; n < topo_.num_nodes(); ++n) {
      const auto idx = static_cast<std::size_t>(n);
      counters_.node_requests[idx] += ctx.spec_node_requests[idx];
      counters_.node_incoming_remote[idx] += ctx.spec_node_incoming_remote[idx];
      ctx.spec_node_requests[idx] = 0;
      ctx.spec_node_incoming_remote[idx] = 0;
    }
    // Presketch deltas fold here too (sketch profile mode): counted sums,
    // so the canonical core order reproduces the serial additions exactly.
    for (const Addr page : ctx.spec_sketch_pages) {
      epoch_presketch_.Add(page, +1);
    }
    ctx.spec_sketch_pages.clear();
  }
  // Replay pending IBS samples into the engine in exact serial order: the
  // serial loop runs (round, thread) and a thread's samples within a round
  // are ordered by access index, so draining each thread's queue up to the
  // round boundary reproduces the per-node store contents byte for byte.
  const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
  for (std::size_t r = first_round; r < last_round; ++r) {
    const std::size_t round_end = std::min((r + 1) * kSliceAccesses, accesses);
    for (int t = 0; t < topo_.num_cores(); ++t) {
      ShardContext& ctx = shard_ctx_[static_cast<std::size_t>(CoreOfThread(t))];
      while (ctx.pending_cursor < ctx.pending_samples.size() &&
             ctx.pending_samples[ctx.pending_cursor].index < round_end) {
        const ShardContext::PendingSample& sample = ctx.pending_samples[ctx.pending_cursor];
        ibs_.Sample(sample.va, ctx.core, ctx.node, sample.home, sample.dram);
        ++ctx.pending_cursor;
      }
    }
  }
  for (ShardContext& ctx : shard_ctx_) {
    ctx.pending_samples.clear();
    ctx.pending_cursor = 0;
  }
}

Cycles Simulation::RunPolicies(Cycles wall_so_far, EpochRecord& record) {
  // Kernel page work (migrations, splits, promotions, shootdowns) runs on
  // per-node worker threads (Section 4.3: "all work generated by an
  // interrupt is performed independently on each node"), so its wall-clock
  // charge is divided by the node count; IBS interrupt time is paid on each
  // sampling core, so it divides across cores.
  Cycles kernel_cycles = 0;
  Cycles overhead = 0;
  std::vector<IbsSample> fresh = ibs_.Drain();
  const std::size_t fresh_count = fresh.size();
  const PageAggMap fresh_pages =
      AggregateSamples(fresh, *address_space_, AggGranularity::kMapping);
  record.metrics = ComputeNumaMetrics(counters_, fresh_pages, std::max<Cycles>(wall_so_far, 1));
  MergePages(cumulative_pages_, fresh_pages);
  // Policy decisions accumulate samples over a sliding window of epochs: the
  // kernel module keeps per-page statistics continuously, and at realistic
  // IBS rates a single second yields too few samples per page to act on.
  // The window aggregate is maintained incrementally (add newest epoch,
  // retire oldest) and folded to the current mapping granularity on demand —
  // per-epoch cost no longer scales with window length x samples per epoch.
  // Runs with no page-placement policy never consume the window aggregate,
  // so they skip its maintenance entirely.
  const bool window_consumed = policy_.use_carrefour || lp_ != nullptr;
  PageAggMap pages;
  if (window_consumed) {
    if (presketch_enabled_) {
      window_.PushEpoch(std::move(fresh), &epoch_presketch_);
      epoch_presketch_.Reset();
    } else {
      window_.PushEpoch(std::move(fresh));
    }
    // Sketch mode prunes the mirrored Carrefour state along with the window
    // (DESIGN.md Section 11): a 2MB window whose last live sample just
    // retired carries per-page placement statistics nothing will read again
    // until it is re-sampled — and re-sampling rebuilds them. Inert on the
    // paper grids (their runs never outlive the 512-epoch window, so nothing
    // retires), it is what bounds Carrefour's state on long sparse runs.
    if (policy_.use_carrefour && !window_.retired_pages().empty()) {
      std::vector<Addr> retired_windows;
      retired_windows.reserve(window_.retired_pages().size());
      for (const Addr base : window_.retired_pages()) {
        retired_windows.push_back(AlignDown(base, kBytes2M));
      }
      std::sort(retired_windows.begin(), retired_windows.end());
      retired_windows.erase(std::unique(retired_windows.begin(), retired_windows.end()),
                            retired_windows.end());
      for (const Addr w : retired_windows) {
        if (!window_.HasSamplesIn(w, kBytes2M)) {
          carrefour_.ForgetRange(w, kBytes2M);
        }
      }
    }
    pages = window_.FoldToMapping(*address_space_);
  }

  std::vector<std::pair<Addr, PageSize>> shootdowns;
  std::vector<std::pair<Addr, std::uint64_t>> shootdown_ranges;
  // Batched page-list accounting for the policy migration passes (DESIGN.md
  // Section 8.4): the per-node workers drain a pass's migrations as page
  // lists — one fixed setup and one shootdown IPI broadcast per
  // `migrate_batch_pages` pages (migrate_pages + mmu_gather semantics) —
  // while the copied bytes always accrue per page. Splits and promotions
  // stay individually priced.
  const auto batched_migrate_cycles = [this](std::uint64_t pages,
                                             std::uint64_t bytes) -> Cycles {
    if (pages == 0) {
      return 0;
    }
    const std::uint64_t batch = std::max<std::uint64_t>(1, sim_.costs.migrate_batch_pages);
    const std::uint64_t lists = (pages + batch - 1) / batch;
    return static_cast<Cycles>(lists) *
               (sim_.costs.migrate_fixed + sim_.costs.shootdown_per_op) +
           static_cast<Cycles>(sim_.costs.migrate_per_byte * static_cast<double>(bytes));
  };
  bool did_split = false;
  const bool any_policy =
      policy_.use_carrefour || policy_.use_reactive || policy_.use_conservative;
  if (any_policy) {
    overhead += sim_.costs.policy_fixed_per_epoch +
                static_cast<Cycles>(fresh_count) * sim_.costs.per_ibs_sample /
                    static_cast<Cycles>(topo_.num_cores());
  }

  std::vector<Addr> repromote_windows;
  if (lp_ != nullptr) {
    LpObservation observation;
    observation.walk_l2_miss_frac = record.metrics.walk_l2_miss_frac;
    observation.max_fault_time_share = record.metrics.max_fault_time_share;
    // Estimates use the iteration's own samples (the paper estimates each
    // second from that second's IBS data); placement uses the accumulated
    // per-page statistics. The window owns the fresh samples now — no copy.
    // The LAR calculus sees only nodes that can be interleave targets or
    // sample sources: CPU nodes. On all-CPU machines this is num_nodes()
    // exactly; with a far tier, counting CPU-less nodes would overstate the
    // interleave spread (1/N locality over nodes no interleave ever lands
    // on) and make the hot-page "accessed from every node" test unreachable.
    observation.lar = EstimateLar(window_.latest_samples(), *address_space_, fresh_pages,
                                  topo_.num_cpu_nodes());
    observation.mapping_pages = &pages;
    observation.num_nodes = topo_.num_cpu_nodes();
    observation.window = &window_;
    // Cost-model inputs (DESIGN.md Section 8): the decision engine predicts
    // with the same constants the engine charges — the walker's expected 4KB
    // walk at the current page-table footprint, the interconnect's per-hop
    // penalty, and this epoch's measured access/wall counters.
    observation.costs.epoch_accesses = counters_.TotalAccesses();
    observation.costs.epoch_dram_accesses = counters_.TotalDram();
    observation.costs.epoch_wall = wall_so_far;
    observation.costs.walk_cycles_4k = walker_.ExpectedWalkCycles(
        PageSize::k4K, address_space_->page_table().table_bytes());
    observation.costs.remote_dram_penalty = remote_dram_premium_;
    observation.costs.split_op_cycles = sim_.costs.split_fixed + sim_.costs.shootdown_per_op;
    observation.costs.tlb_4k_reach_pages = static_cast<std::uint64_t>(sim_.tlb.l2_sets) *
                                           static_cast<std::uint64_t>(sim_.tlb.l2_ways) *
                                           static_cast<std::uint64_t>(topo_.num_cores());
    // Realized-gain discount (fault injection only): how much of what
    // Carrefour planned recently actually executed. 1.0 with faults off.
    if (fault_plan_ != nullptr && fault_mig_attempted_ > 0) {
      observation.migration_success_rate =
          static_cast<double>(fault_mig_executed_) /
          static_cast<double>(fault_mig_attempted_);
    }
    record.est_current_lar = observation.lar.current_pct;
    record.est_carrefour_lar = observation.lar.carrefour_pct;
    record.est_split_lar = observation.lar.carrefour_split_pct;

    const LpDecision decision = lp_->Step(observation);
    // Hot pages first (Algorithm 1 line 19): split, then interleave the
    // constituent pages across nodes — migration alone cannot balance fewer
    // hot pages than nodes. A hot page is usually also shared, so handling
    // it before the shared-page pass preserves the interleave.
    for (const auto& entry : decision.split_hot) {
      const Addr base = entry.first;
      const PageSize size = entry.second;
      if (fault_plan_ != nullptr && fault_plan_->FailSplit()) {
        // Injected demotion failure: the 2MB mapping stays intact, and the
        // decision engine re-requests the still-hot page next epoch — the
        // retry re-arms itself through the unchanged estimates.
        continue;
      }
      if (!address_space_->SplitLargePage(base)) {
        continue;
      }
      kernel_cycles += sim_.costs.split_fixed + sim_.costs.shootdown_per_op;
      ++record.splits;
      carrefour_.Forget(base);
      // One ranged shootdown covers the stale large-page translation and
      // every piece the interleave loop below migrates.
      shootdown_ranges.emplace_back(base, BytesOf(size));
      did_split = true;
      const PageSize piece = size == PageSize::k1G ? PageSize::k2M : PageSize::k4K;
      const std::uint64_t step = BytesOf(piece);
      std::uint64_t interleaved_pages = 0;
      std::uint64_t interleaved_bytes = 0;
      // Interleave targets are CPU nodes only: spreading a hot page's pieces
      // onto a CXL expander trades controller balance it doesn't need for a
      // flat latency tax on every access (DESIGN.md Section 13). The draw
      // count and the draw->node mapping are unchanged on all-CPU machines.
      const std::vector<int>& cpu = topo_.cpu_nodes();
      for (Addr p = base; p < base + BytesOf(size); p += step) {
        const int target = cpu[static_cast<std::size_t>(
            policy_rng_.Uniform(static_cast<std::uint64_t>(cpu.size())))];
        if (auto moved = address_space_->MigratePage(p, target)) {
          ++interleaved_pages;
          interleaved_bytes += moved->bytes;
          ++record.migrations;
        }
      }
      kernel_cycles += batched_migrate_cycles(interleaved_pages, interleaved_bytes);
    }
    // Shared large pages (lines 15-18).
    for (const auto& entry : decision.split_shared) {
      const Addr base = entry.first;
      if (fault_plan_ != nullptr && fault_plan_->FailSplit()) {
        continue;  // as above: mapping intact, re-requested next epoch
      }
      if (address_space_->SplitLargePage(base)) {
        kernel_cycles += sim_.costs.split_fixed + sim_.costs.shootdown_per_op;
        ++record.splits;
        carrefour_.Forget(base);
        shootdowns.emplace_back(base, entry.second);
        did_split = true;
        const PageSize piece_size =
            entry.second == PageSize::k1G ? PageSize::k2M : PageSize::k4K;
        const std::uint64_t piece_step = BytesOf(piece_size);
        // Split-time placement (DESIGN.md Section 8.4): the window's own
        // per-4KB sample aggregates already say who uses each piece, so
        // sampled pieces move to their majority-requester node *now*, as one
        // batched relocation — the kernel walks the window once (one fixed
        // charge per batch plus the copied bytes), and the pieces have no
        // cached translations yet (the stale large-page entry was just shot
        // down), so no per-piece shootdowns accrue. The old everything-lazy
        // path paid a fault plus a full single-page migration for every
        // piece — the mass-relocation transient UA.B could not amortize.
        // Every piece additionally keeps a hinting-fault mark: a correctly
        // pre-placed piece consumes its mark for free (the toucher is
        // local), while a piece a sparse sample misplaced is corrected by
        // its very next toucher instead of waiting for Carrefour's
        // sample-threshold crawl.
        std::uint64_t relocated_pages = 0;
        std::uint64_t relocated_bytes = 0;
        for (Addr p = base; p < base + BytesOf(entry.second); p += piece_step) {
          migrate_on_touch_.Insert(p);
          const auto target = window_.MajorityReqNodeIn(
              p, piece_step, sim_.costs.split_place_min_samples);
          if (!target.has_value()) {
            continue;
          }
          if (auto moved = address_space_->MigratePage(p, *target)) {
            ++relocated_pages;
            relocated_bytes += moved->bytes;
            ++record.migrations;
          }
        }
        kernel_cycles += batched_migrate_cycles(relocated_pages, relocated_bytes);
      }
    }
    repromote_windows = std::move(decision.repromote_windows);
  }

  // Carrefour migration/interleave pass (Algorithm 1 line 20). If pages were
  // split this epoch, re-aggregate so the plan sees the new granularity.
  if (policy_.use_carrefour) {
    const std::uint64_t accesses = counters_.TotalAccesses();
    const double dram_rate =
        accesses == 0
            ? 0.0
            : static_cast<double>(counters_.TotalDram()) / static_cast<double>(accesses);
    if (carrefour_.ShouldRun(record.metrics.lar_pct, record.metrics.imbalance_pct, dram_rate)) {
      const PageAggMap* plan_pages = &pages;
      PageAggMap reaggregated;
      if (did_split) {
        // Re-fold so the plan sees the post-split granularity (the 4KB window
        // aggregate itself needed no re-bucketing: splits do not move 4KB
        // windows across 4KB boundaries).
        reaggregated = window_.FoldToMapping(*address_space_);
        plan_pages = &reaggregated;
      }
      auto plan = carrefour_.Plan(*plan_pages, record.epoch);
      if (fault_plan_ != nullptr) {
        fault_mig_attempted_ += plan.size();
        // Partial completion: the per-node workers ran out of epoch budget
        // mid-list. The truncated tail is re-queued through the failure
        // backoff — charged attempts, no delivered locality.
        const std::size_t budget = fault_plan_->PlanBudget(plan.size());
        if (budget < plan.size()) {
          for (std::size_t i = budget; i < plan.size(); ++i) {
            carrefour_.NoteMigrationFailure(plan[i].page_base, record.epoch);
          }
          plan.resize(budget);
        }
      }
      std::uint64_t plan_pages_moved = 0;
      std::uint64_t plan_bytes_moved = 0;
      std::uint64_t plan_failed_attempts = 0;
      for (const CarrefourAction& action : plan) {
        if (auto moved = address_space_->MigratePage(action.page_base, action.target_node)) {
          ++plan_pages_moved;
          plan_bytes_moved += moved->bytes;
          ++record.migrations;
          shootdowns.emplace_back(moved->page_base, moved->size);
          if (fault_plan_ != nullptr) {
            ++fault_mig_executed_;
            carrefour_.NoteMigrationSuccess(action.page_base);
          }
        } else if (fault_plan_ != nullptr) {
          // Actionable failure (injected fault or full target node) versus
          // benign no-op: the retry machinery owns the page only if it still
          // exists at this exact base and still sits off-target.
          const auto mapping = address_space_->Translate(action.page_base);
          if (mapping.has_value() && mapping->page_base == action.page_base &&
              mapping->node != action.target_node) {
            carrefour_.NoteMigrationFailure(action.page_base, record.epoch);
            ++plan_failed_attempts;
          }
        }
      }
      kernel_cycles += batched_migrate_cycles(plan_pages_moved, plan_bytes_moved);
      // Failed attempts still paid their list setup and shootdown broadcast;
      // only the copy was skipped.
      kernel_cycles += batched_migrate_cycles(plan_failed_attempts, 0);
    }
  }

  // Reactive re-promotion (DESIGN.md Section 8): consolidate the windows the
  // decision engine handed back, under khugepaged's own rule (majority node,
  // anti-oscillation guard). Like khugepaged promotions, these land after
  // this epoch's placement pass — next epoch's fold sees the new granularity.
  for (const Addr base : repromote_windows) {
    if (fault_plan_ != nullptr && fault_plan_->InPromoteBackoff(base)) {
      continue;  // a recent 2MB allocation failure put this window in backoff
    }
    const auto target = WindowPromotionTarget(*address_space_, base);
    if (!target.has_value()) {
      continue;  // under-populated or interleaved window: khugepaged may
                 // consolidate it later, once lazy placement fills it in
    }
    if (auto promo = address_space_->PromoteWindow(base, *target)) {
      kernel_cycles += sim_.costs.promote_fixed +
                       static_cast<Cycles>(sim_.costs.promote_per_byte *
                                           static_cast<double>(promo->bytes_copied)) +
                       sim_.costs.shootdown_per_op;
      ++record.promotions;
      // The per-4KB-piece policy state underneath the window is stale now:
      // the pieces no longer exist, and their pending lazy migrations must
      // not move the consolidated huge page.
      carrefour_.ForgetRange(base, kBytes2M);
      if (!migrate_on_touch_.empty()) {
        for (Addr p = base; p < base + kBytes2M; p += kBytes4K) {
          migrate_on_touch_.Erase(p);
        }
      }
      shootdown_ranges.emplace_back(base, kBytes2M);
    }
  }

  // khugepaged runs only while THP is enabled (splitting disables allocation,
  // which parks the scanner too — otherwise it would undo every split). The
  // hot-page localize path splits *without* disabling allocation, so the
  // scanner additionally skips windows whose pieces still await
  // hinting-fault placement: at split time all frames sit on one node, and
  // consolidating before the pieces scatter would undo the split in the
  // same epoch (and leave stale migrate-on-touch marks that could wholesale-
  // migrate the consolidated page).
  if (thp_state_.promote_enabled && thp_state_.alloc_enabled) {
    const auto skip_in_flux = [this](Addr base) {
      // Windows whose 2MB allocation recently failed sit out their backoff
      // before khugepaged retries them (fault injection only).
      if (fault_plan_ != nullptr && fault_plan_->InPromoteBackoff(base)) {
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
    const auto promotions = khugepaged_.Scan(sim_.promote_scan_windows,
                                             sim_.promote_max_per_epoch, skip_in_flux);
    for (const PromotionRecord& promo : promotions) {
      kernel_cycles += sim_.costs.promote_fixed +
                       static_cast<Cycles>(sim_.costs.promote_per_byte *
                                           static_cast<double>(promo.bytes_copied)) +
                       sim_.costs.shootdown_per_op;
      // The 512 stale 4KB translations of the consolidated window, as one
      // ranged shootdown.
      shootdown_ranges.emplace_back(promo.window_base, kBytes2M);
    }
    record.promotions += promotions.size();
  }

  for (ShardContext& ctx : shard_ctx_) {
    for (const auto& [page_base, size] : shootdowns) {
      ctx.tlb.InvalidatePage(page_base, size);
    }
    for (const auto& [base, bytes] : shootdown_ranges) {
      ctx.tlb.InvalidateRange(base, bytes);
    }
  }
  // Kernel work parallelizes across the nodes that have CPUs to run it
  // (identical to num_nodes() on every all-CPU machine).
  overhead += static_cast<Cycles>(static_cast<double>(kernel_cycles) /
                                  (static_cast<double>(topo_.num_cpu_nodes()) *
                                   sim_.costs.kernel_time_scale));
  return overhead;
}

RunResult Simulation::Run() {
  RunResult result;
  result.workload = workload_spec_.name;
  result.machine = topo_.name();
  result.policy = policy_.kind;
  result.core_totals.resize(static_cast<std::size_t>(topo_.num_cores()));
  result.node_request_totals.assign(static_cast<std::size_t>(topo_.num_nodes()), 0);
  std::vector<RegionMapEvent> map_events;
  std::vector<RegionUnmapEvent> unmap_events;

  for (int epoch = 0; epoch < sim_.max_epochs; ++epoch) {
    // Cooperative watchdog cancellation, checked only at epoch boundaries:
    // a cancelled run is a deterministic prefix of the uncancelled one, so
    // everything recorded up to here is still exact.
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      result.status = "deadline";
      break;
    }
    if (fault_plan_ != nullptr) {
      fault_plan_->BeginEpoch(epoch, phys_);
    }
    counters_.Reset();
    for (ShardContext& ctx : shard_ctx_) {
      ctx.fault_parts = FaultCycleParts{};
    }
    const bool epoch_in_setup = !workload_->SetupDone();
    if (!epoch_in_setup && !steady_transition_done_) {
      steady_transition_done_ = true;
      // The setup phase's first-touch storm is over. Its samples — cross-node
      // touches of windows that are now settled — would otherwise dominate
      // the decision window (and Carrefour's interleave memory) for the whole
      // run, which is seconds long where the paper's are minutes: the paper's
      // benchmarks measure steady state, so the policies decide on it too.
      window_.Clear();
      carrefour_.ForgetAll();
    }

    // Generate every thread's batch, then execute them in round-robin slices:
    // threads run concurrently on the real machine, so first-touch races
    // (which thread faults a shared 2MB window first) must interleave at a
    // fine grain rather than letting thread 0 win everything (see
    // kSliceAccesses). Thread t's batch lands in the context of its pinned
    // core.
    workload_->BeginEpoch();
    // Mid-epoch RegionMap events (mmap churn — trace sources only): the
    // source performed the MmapAnon itself inside BeginEpoch; here the new
    // regions enter the per-region cost tables, the churn counters, and the
    // capture stream.
    workload_->DrainMapEvents(&map_events);
    result.region_maps += map_events.size();
    for (int r = static_cast<int>(region_mlp_.size()); r < workload_->num_regions(); ++r) {
      const SourceRegion region = workload_->region(r);
      region_mlp_.push_back(region.mlp);
      region_intensity_.push_back(region.dram_intensity);
    }
    FillBatches();
    if (capture_ != nullptr) {
      // The serial capture point: every batch is filled by now, and each
      // thread's stream depends only on its own generator state, so the
      // recorded stream is invariant across jobs × shards × engine
      // (DESIGN.md §14).
      capture_->BeginEpoch(epoch_in_setup);
      for (const auto& event : map_events) {
        capture_->RegionMap(event);
      }
      for (int t = 0; t < topo_.num_cores(); ++t) {
        capture_->Batch(t, shard_ctx_[static_cast<std::size_t>(CoreOfThread(t))].batch);
      }
    }
    ExecuteEpochAccesses(epoch_in_setup);

    // Page-table-lock contention: the fixed part of fault cost scales with
    // the number of cores faulting concurrently this epoch ([3] in the
    // paper; why THP's 512x fewer faults matter beyond zeroing).
    int faulting_cores = 0;
    for (const auto& core : counters_.cores) {
      if (core.faults_4k + core.faults_2m + core.faults_1g > 0) {
        ++faulting_cores;
      }
    }
    const double contention =
        std::min(sim_.costs.fault_contention_max,
                 1.0 + sim_.costs.fault_contention_slope * std::max(0, faulting_cores - 1));
    for (int c = 0; c < topo_.num_cores(); ++c) {
      const FaultCycleParts& parts = shard_ctx_[static_cast<std::size_t>(c)].fault_parts;
      counters_.cores[static_cast<std::size_t>(c)].fault_cycles =
          parts.zero + static_cast<Cycles>(static_cast<double>(parts.fixed) * contention);
    }

    // Resolve DRAM latencies from this epoch's controller load distribution.
    const std::uint64_t ctrl_capacity = static_cast<std::uint64_t>(
        sim_.mem_ctrl.capacity_fraction *
        static_cast<double>(topo_.num_cores()) *
        static_cast<double>(sim_.accesses_per_thread_per_epoch) /
        static_cast<double>(topo_.num_nodes()));
    auto latencies = mem_ctrl_.Latencies(counters_.node_requests, ctrl_capacity);
    // Far-memory service premium (DESIGN.md Section 13): a CXL expander
    // serves every request — local traffic does not exist, it has no cores —
    // at a flat extra latency on top of its queueing model. Zero on every
    // all-CPU preset, so the addition is a no-op there.
    for (int n = 0; n < topo_.num_nodes(); ++n) {
      latencies[static_cast<std::size_t>(n)] += topo_.node(n).extra_latency;
    }
    const auto remote =
        interconnect_.RemoteLatencies(counters_.node_incoming_remote);
    for (int c = 0; c < topo_.num_cores(); ++c) {
      const int node = topo_.NodeOfCore(c);
      Cycles dram_cycles = 0;
      for (int n = 0; n < topo_.num_nodes(); ++n) {
        const std::uint64_t requests =
            counters_.core_node_requests[static_cast<std::size_t>(c)][static_cast<std::size_t>(n)];
        if (requests == 0) {
          continue;
        }
        Cycles per_request = latencies[static_cast<std::size_t>(n)];
        if (n != node) {
          per_request += remote[static_cast<std::size_t>(node)][static_cast<std::size_t>(n)];
        }
        dram_cycles += requests * per_request;
      }
      counters_.cores[static_cast<std::size_t>(c)].dram_cycles = dram_cycles;
    }

    // Measured remote premium for the reactive cost model: averaged over this
    // epoch's actual remote traffic, what one remote access cost beyond a
    // local one — the hop latency plus the destination controller's queueing
    // delta. Floors at the configured hop cost when there was no remote
    // traffic (or congestion happened to favor the remote node).
    {
      double premium_sum = 0.0;
      std::uint64_t remote_requests = 0;
      for (int c = 0; c < topo_.num_cores(); ++c) {
        const int node = topo_.NodeOfCore(c);
        for (int n = 0; n < topo_.num_nodes(); ++n) {
          if (n == node) {
            continue;
          }
          const std::uint64_t requests =
              counters_.core_node_requests[static_cast<std::size_t>(c)]
                                          [static_cast<std::size_t>(n)];
          if (requests == 0) {
            continue;
          }
          remote_requests += requests;
          premium_sum +=
              static_cast<double>(requests) *
              (static_cast<double>(remote[static_cast<std::size_t>(node)]
                                         [static_cast<std::size_t>(n)]) +
               static_cast<double>(latencies[static_cast<std::size_t>(n)]) -
               static_cast<double>(latencies[static_cast<std::size_t>(node)]));
        }
      }
      const double floor = static_cast<double>(sim_.interconnect.per_hop);
      remote_dram_premium_ = static_cast<Cycles>(
          remote_requests == 0
              ? floor
              : std::max(floor, premium_sum / static_cast<double>(remote_requests)));
    }

    Cycles wall = 0;
    for (const auto& core : counters_.cores) {
      wall = std::max(wall, core.total_cycles());
    }

    EpochRecord record;
    record.epoch = epoch;
    record.in_setup = epoch_in_setup;
    Cycles overhead = RunPolicies(wall, record);
    // Batched hinting-fault accounting: the epoch's hint migrations carry
    // their per-byte copy costs (accrued in ProcessSlice) plus one fixed
    // setup and shootdown charge per batch of `migrate_batch_pages` pages —
    // the per-node worker moves its backlog as page lists, not one priced
    // syscall per page. (The on-core minor-fault charge is unbatchable and
    // was paid inline.)
    if (hint_migrations_ > 0) {
      const std::uint64_t batch = std::max<std::uint64_t>(1, sim_.costs.migrate_batch_pages);
      hint_kernel_cycles_ += (sim_.costs.migrate_fixed + sim_.costs.shootdown_per_op) *
                             ((hint_migrations_ + batch - 1) / batch);
    }
    overhead += static_cast<Cycles>(static_cast<double>(hint_kernel_cycles_) /
                                    (static_cast<double>(topo_.num_cpu_nodes()) *
                                     sim_.costs.kernel_time_scale));
    record.migrations += hint_migrations_;
    hint_kernel_cycles_ = 0;
    hint_migrations_ = 0;
    wall += overhead;
    record.wall = wall;
    record.policy_overhead = overhead;
    record.thp_coverage = address_space_->LargePageCoverage();
    record.thp_alloc_enabled = thp_state_.alloc_enabled;
    record.thp_promote_enabled = thp_state_.promote_enabled;

    result.total_cycles += wall;
    if (!epoch_in_setup) {
      result.measured_cycles += wall;
    }
    result.total_policy_overhead += overhead;
    result.total_migrations += record.migrations;
    result.total_splits += record.splits;
    result.total_promotions += record.promotions;
    for (int c = 0; c < topo_.num_cores(); ++c) {
      result.core_totals[static_cast<std::size_t>(c)].Accumulate(
          counters_.cores[static_cast<std::size_t>(c)]);
    }
    for (int n = 0; n < topo_.num_nodes(); ++n) {
      result.node_request_totals[static_cast<std::size_t>(n)] +=
          counters_.node_requests[static_cast<std::size_t>(n)];
    }
    result.history.push_back(record);

    // Epoch-end RegionUnmap events (munmap churn): frames go back through
    // the buddy allocator — where long-lived churn fragments the free lists
    // for real — and every core's TLB entries for the range die. Serialized
    // epoch-end work, like the policy mutations above. The munmap syscall's
    // own kernel time is not modeled; the churn's effect is allocator-side
    // (DESIGN.md §14).
    workload_->DrainUnmapEvents(&unmap_events);
    for (const auto& event : unmap_events) {
      if (capture_ != nullptr) {
        capture_->RegionUnmap(event);
      }
      const AddressSpace::UnmapStats stats =
          address_space_->MunmapRange(event.base, event.bytes);
      result.unmapped_bytes += stats.freed_bytes;
      ++result.region_unmaps;
      for (ShardContext& ctx : shard_ctx_) {
        ctx.tlb.InvalidateRange(event.base, event.bytes);
      }
    }

    const bool done = workload_->Done();
    if (capture_ != nullptr) {
      capture_->EndEpoch(done);
    }
    if (done) {
      result.completed = true;
      break;
    }
  }

  result.epochs = static_cast<int>(result.history.size());
  for (const auto& core : result.core_totals) {
    result.totals.Accumulate(core);
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
  // Unconditional (not fault-gated): churn-driven organic huge-allocation
  // failures happen with no fault plan installed.
  result.thp_fallback_faults = address_space_->thp_fallback_faults();
  result.trace_source = trace_provenance_;
  if (capture_ != nullptr) {
    capture_->Finish(result.completed);
  }
  // Buddy fragmentation telemetry (filled on every run, faults or not):
  // worst per-node fragmentation, the largest order any node can still
  // serve, and the machine's residual 2MB allocation capacity.
  constexpr int kOrder2M = 9;  // 2^9 frames * 4KB = 2MB
  for (int n = 0; n < phys_.num_nodes(); ++n) {
    const BuddyAllocator& alloc = phys_.node_allocator(n);
    result.frag_index_pct =
        std::max(result.frag_index_pct, 100.0 * alloc.FragmentationIndex());
    result.buddy_largest_free_order =
        std::max(result.buddy_largest_free_order, alloc.LargestFreeOrder());
    for (int o = kOrder2M; o <= kMaxOrder; ++o) {
      result.buddy_free_2m_blocks += alloc.FreeBlocksOfOrder(o)
                                     << (o - kOrder2M);
    }
    result.buddy_alloc_failures += alloc.alloc_failures();
  }
  result.profile_peak_entries = window_.peak_entries();
  result.profile_state_bytes = window_.peak_state_bytes();
  result.profile_admission_misses = window_.admission_misses();
  result.speculation = speculation_;
  result.cumulative_pages = std::move(cumulative_pages_);
  cumulative_pages_ = PageAggMap{};
  return result;
}

RunResult RunBenchmark(const Topology& topo, BenchmarkId bench, PolicyKind kind,
                       const SimConfig& sim) {
  const WorkloadSpec spec = MakeWorkloadSpec(bench, topo);
  const PolicyConfig policy = MakePolicyConfig(kind);
  Simulation simulation(topo, spec, policy, sim);
  return simulation.Run();
}

}  // namespace numalp
