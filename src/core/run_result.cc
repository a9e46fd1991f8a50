#include "src/core/run_result.h"

#include <algorithm>
#include <span>

#include "src/common/stats.h"
#include "src/mem/phys_mem.h"

namespace numalp {

void RunResult::AddEpoch(const EpochRecord& record, const EpochCounters& counters) {
  total_cycles += record.wall;
  if (!record.in_setup) {
    measured_cycles += record.wall;
  }
  total_policy_overhead += record.policy_overhead;
  total_migrations += record.migrations;
  total_splits += record.splits;
  total_promotions += record.promotions;
  for (std::size_t c = 0; c < core_totals.size(); ++c) {
    core_totals[c].Accumulate(counters.cores[c]);
    totals.Accumulate(counters.cores[c]);
  }
  for (std::size_t n = 0; n < node_request_totals.size(); ++n) {
    node_request_totals[n] += counters.node_requests[n];
  }
  history.push_back(record);
  epochs = static_cast<int>(history.size());
}

void RunResult::RecordAllocatorState(const PhysicalMemory& phys) {
  // Worst per-node fragmentation, the largest order any node can serve, and
  // the residual 2MB capacity.
  constexpr int kOrder2M = 9;  // 2^9 frames * 4KB = 2MB
  for (int n = 0; n < phys.num_nodes(); ++n) {
    const BuddyAllocator& alloc = phys.node_allocator(n);
    frag_index_pct = std::max(frag_index_pct, 100.0 * alloc.FragmentationIndex());
    buddy_largest_free_order = std::max(buddy_largest_free_order, alloc.LargestFreeOrder());
    for (int o = kOrder2M; o <= kMaxOrder; ++o) {
      buddy_free_2m_blocks += alloc.FreeBlocksOfOrder(o) << (o - kOrder2M);
    }
    buddy_alloc_failures += alloc.alloc_failures();
  }
}

void RunResult::RecordPageMetrics(const PageAggMap& cumulative_pages) {
  pamup_pct = numalp::PamupPct(cumulative_pages);
  nhp = CountHotPages(cumulative_pages);
  psp_pct = numalp::PspPct(cumulative_pages);
  sampled_pages = cumulative_pages.size();
}

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

}  // namespace numalp
