#include "src/core/access_engine.h"

#include <algorithm>

namespace numalp {

AccessEngine::AccessEngine(const Topology& topo, const SimConfig& sim, AddressSpace& address_space,
                           AccessSource& source, EpochCounters& counters, IbsEngine& ibs,
                           const PageWalker& walker, FlatSet<Addr>& migrate_on_touch)
    : topo_(topo),
      sim_(sim),
      address_space_(&address_space),
      workload_(&source),
      counters_(counters),
      ibs_(ibs),
      walker_(walker),
      migrate_on_touch_(migrate_on_touch) {
  shard_ctx_.reserve(static_cast<std::size_t>(topo_.num_cores()));
  Rng seeder(sim_.seed ^ 0x7777u);
  for (int c = 0; c < topo_.num_cores(); ++c) {
    shard_ctx_.emplace_back(sim_.tlb, topo_.num_nodes(), c, topo_.NodeOfCore(c));
    shard_ctx_.back().rng = seeder.Fork();
    // Sized once here: a fill then never allocates, whichever worker claims
    // the thread (FillBatch produces at most this many accesses).
    shard_ctx_.back().batch.reserve(sim_.accesses_per_thread_per_epoch);
  }
  fill_job_ = [this](int /*worker*/) {
    const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
    const int cores = topo_.num_cores();
    for (int t = next_fill_thread_.fetch_add(1, std::memory_order_relaxed); t < cores;
         t = next_fill_thread_.fetch_add(1, std::memory_order_relaxed)) {
      auto& batch = shard_ctx_[static_cast<std::size_t>(CoreOfThread(t))].batch;
      workload_->FillBatch(t, accesses, batch);
    }
  };
  // More shards than simulated cores could never get work.
  shard_pool_ = std::make_unique<ShardPool>(std::clamp(sim_.shards, 1, topo_.num_cores()));
}

void AccessEngine::Execute(bool epoch_in_setup) {
  for (ShardContext& ctx : shard_ctx_) {
    ctx.fault_parts = FaultCycleParts{};
  }
  ExecuteEpochAccesses(epoch_in_setup);
  // Page-table-lock contention ([3] in the paper): why THP's 512x fewer
  // faults matter beyond zeroing.
  int faulting_cores = 0;
  for (const auto& core : counters_.cores) {
    if (core.faults_4k + core.faults_2m + core.faults_1g > 0) {
      ++faulting_cores;
    }
  }
  const double contention =
      std::min(sim_.costs.fault_contention_max,
               1.0 + sim_.costs.fault_contention_slope * std::max(0, faulting_cores - 1));
  for (const ShardContext& ctx : shard_ctx_) {
    counters_.cores[static_cast<std::size_t>(ctx.core)].fault_cycles =
        ctx.fault_parts.zero +
        static_cast<Cycles>(static_cast<double>(ctx.fault_parts.fixed) * contention);
  }
}

void AccessEngine::Shootdown(std::span<const PageShootdown> pages,
                             std::span<const RangeShootdown> ranges) {
  for (ShardContext& ctx : shard_ctx_) {
    for (const auto& [page_base, size] : pages) {
      ctx.tlb.InvalidatePage(page_base, size);
    }
    for (const auto& [base, bytes] : ranges) {
      ctx.tlb.InvalidateRange(base, bytes);
    }
  }
}

int AccessEngine::CoreOfThread(int thread) const {
  // Round-robin pinning across CPU-bearing nodes (the Linux scatter the
  // paper's workloads run under): thread t -> node t % N, so on all-CPU
  // machines exactly the seed's (t % nodes) * cores_per_node + t / nodes.
  // Far-memory nodes have no cores and never appear in the rotation.
  const std::vector<int>& cpu = topo_.cpu_nodes();
  const int n = static_cast<int>(cpu.size());
  const NodeInfo& node = topo_.node(cpu[static_cast<std::size_t>(thread % n)]);
  return node.first_core + thread / n;
}

template <bool kSpeculative>
bool AccessEngine::ProcessSlice(ShardContext& ctx, const WorkloadAccess* accesses,
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
      } else {
        ibs_.Sample(access.va, core, node, home, dram);
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

void AccessEngine::StartFill() {
  for (int r = static_cast<int>(region_mlp_.size()); r < workload_->num_regions(); ++r) {
    const SourceRegion region = workload_->region(r);
    region_mlp_.push_back(region.mlp);
    region_intensity_.push_back(region.dram_intensity);
  }
  next_fill_thread_.store(0, std::memory_order_relaxed);
  shard_pool_->Start(fill_job_);
}

void AccessEngine::FinishFill() { shard_pool_->Join(); }

void AccessEngine::AbandonFill() noexcept {
  next_fill_thread_.store(topo_.num_cores(), std::memory_order_relaxed);
  try {
    shard_pool_->Join();
  } catch (...) {
    // The fill's epoch is not run, so its error has no one to report to.
  }
}

void AccessEngine::ExecuteEpochAccesses(bool epoch_in_setup) {
  const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
  const std::size_t num_rounds = (accesses + kSliceAccesses - 1) / kSliceAccesses;
  // Setup epochs are one long first-touch storm: nearly every window would
  // abort on a fault. A property of the simulation state, not of the shard
  // count, so every shard count takes the same branch. The serial oracle
  // (tests/oracles/serial_engine.h) runs every epoch this way.
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
      // Replay the window serially, then stay serial for a penalty span:
      // aborts cluster (fault bursts, post-split lazy placement), and each
      // costs a snapshot, a partial run and a rollback on top of the replay.
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

void AccessEngine::RunRoundsSerial(std::size_t first_round, std::size_t last_round) {
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

bool AccessEngine::TrySpeculativeWindow(std::size_t first_round, std::size_t last_round) {
  spec_failed_.store(false, std::memory_order_relaxed);
  const std::size_t accesses = sim_.accesses_per_thread_per_epoch;
  const std::size_t offset = first_round * kSliceAccesses;
  const std::size_t window_end = std::min(last_round * kSliceAccesses, accesses);
  const int cores = topo_.num_cores();
  const int shards = shard_pool_->shards();
  shard_pool_->Run([&](int worker) {
    // Snapshot every assigned core first: a failed window restores all
    // contexts, including ones never started (a no-op restore).
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
      // The whole window as one mega-slice: with no shared mutation inside
      // it, a thread's serial slices see exactly the state this call sees.
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

void AccessEngine::SnapshotShard(ShardContext& ctx) {
  ctx.tlb_backup = ctx.tlb;
  ctx.rng_backup = ctx.rng;
  ctx.cc_backup = counters_.cores[static_cast<std::size_t>(ctx.core)];
  ctx.core_node_requests_backup = counters_.core_node_requests[static_cast<std::size_t>(ctx.core)];
  ctx.ibs_countdown_backup = ibs_.countdown(ctx.core);
}

void AccessEngine::RestoreShard(ShardContext& ctx) {
  ctx.tlb = ctx.tlb_backup;
  ctx.rng = ctx.rng_backup;
  counters_.cores[static_cast<std::size_t>(ctx.core)] = ctx.cc_backup;
  counters_.core_node_requests[static_cast<std::size_t>(ctx.core)] = ctx.core_node_requests_backup;
  ibs_.countdown(ctx.core) = ctx.ibs_countdown_backup;
  std::fill(ctx.spec_node_requests.begin(), ctx.spec_node_requests.end(), 0);
  std::fill(ctx.spec_node_incoming_remote.begin(), ctx.spec_node_incoming_remote.end(), 0);
  ctx.pending_samples.clear();
  ctx.pending_cursor = 0;
}

void AccessEngine::CommitWindow(std::size_t first_round, std::size_t last_round) {
  // Fold the shared-counter deltas: integer sums, so any order gives the
  // serial totals; canonical core order keeps it auditable.
  for (ShardContext& ctx : shard_ctx_) {
    for (int n = 0; n < topo_.num_nodes(); ++n) {
      const auto idx = static_cast<std::size_t>(n);
      counters_.node_requests[idx] += ctx.spec_node_requests[idx];
      counters_.node_incoming_remote[idx] += ctx.spec_node_incoming_remote[idx];
      ctx.spec_node_requests[idx] = 0;
      ctx.spec_node_incoming_remote[idx] = 0;
    }
  }
  // Replay pending IBS samples in exact serial (round, thread) order:
  // draining each thread's index-ordered queue up to the round boundary
  // reproduces the per-node stores byte for byte.
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

}  // namespace numalp
