#include "src/metrics/numa_metrics.h"

#include <algorithm>
#include <bit>

#include "src/common/stats.h"

namespace numalp {

void PageAgg::AddCounts(const PageAgg& other) {
  total += other.total;
  dram += other.dram;
  core_mask |= other.core_mask;
  for (std::size_t n = 0; n < req_node_counts.size(); ++n) {
    req_node_counts[n] += other.req_node_counts[n];
  }
}

int PageAgg::DistinctNodes() const {
  int distinct = 0;
  for (std::uint32_t c : req_node_counts) {
    if (c > 0) {
      ++distinct;
    }
  }
  return distinct;
}

int PageAgg::MajorityReqNode() const {
  int best = 0;
  for (int n = 1; n < kMaxNodes; ++n) {
    if (req_node_counts[static_cast<std::size_t>(n)] >
        req_node_counts[static_cast<std::size_t>(best)]) {
      best = n;
    }
  }
  return best;
}

double PageAgg::MajorityReqSharePct() const {
  std::uint64_t total_reqs = 0;
  for (std::uint32_t c : req_node_counts) {
    total_reqs += c;
  }
  if (total_reqs == 0) {
    return 100.0;
  }
  return 100.0 *
         static_cast<double>(
             req_node_counts[static_cast<std::size_t>(MajorityReqNode())]) /
         static_cast<double>(total_reqs);
}

int PageAgg::SharerCount() const { return std::popcount(core_mask); }

void MergePageAggs(PageAggMap& into, const PageAggMap& from) {
  for (const auto& [base, agg] : from) {
    PageAgg& target = into[base];
    target.size = agg.size;
    target.home_node = agg.home_node;
    target.AddCounts(agg);
  }
}

PageAggMap AggregateSamples(std::span<const IbsSample> samples,
                            const AddressSpace& address_space, AggGranularity granularity) {
  PageAggMap pages;
  // Samples arrive with strong page locality; the one-line cache turns the
  // common repeat-translation into a range check (identical results).
  AddressSpace::TranslationCache cache;
  for (const IbsSample& sample : samples) {
    Addr page_base = 0;
    PageSize size = PageSize::k4K;
    int home_node = -1;
    const auto mapping = address_space.Translate(sample.va, cache);
    if (!mapping.has_value()) {
      continue;  // page was unmapped between sampling and aggregation
    }
    switch (granularity) {
      case AggGranularity::kMapping:
        page_base = mapping->page_base;
        size = mapping->size;
        home_node = mapping->node;
        break;
      case AggGranularity::k4K: {
        page_base = AlignDown(sample.va, kBytes4K);
        size = PageSize::k4K;
        // Home of the constituent 4KB frame (inside a large page the block is
        // physically contiguous, so it is the large page's node).
        home_node = mapping->node;
        break;
      }
      case AggGranularity::k2M:
        page_base = AlignDown(sample.va, kBytes2M);
        size = PageSize::k2M;
        home_node = mapping->node;
        break;
    }
    PageAgg& agg = pages[page_base];
    agg.size = size;
    agg.home_node = home_node;
    ++agg.total;
    if (sample.dram) {
      ++agg.dram;
    }
    ++agg.req_node_counts[sample.req_node];
    if (sample.core < 64) {
      agg.core_mask |= 1ull << sample.core;
    } else {
      agg.core_mask |= 1ull << (sample.core % 64);
    }
  }
  return pages;
}

double LarPct(const EpochCounters& counters) {
  std::uint64_t local = 0;
  std::uint64_t total = 0;
  for (const auto& core : counters.cores) {
    local += core.dram_local;
    total += core.dram_accesses();
  }
  return total == 0 ? 100.0 : 100.0 * static_cast<double>(local) / static_cast<double>(total);
}

double ControllerImbalancePct(const EpochCounters& counters) {
  return ImbalancePct(std::span<const std::uint64_t>(counters.node_requests));
}

double WalkL2MissFraction(const EpochCounters& counters) {
  // L2 misses ~= DRAM-serviced data accesses + PTE fetches that missed L2.
  const std::uint64_t walk = counters.TotalWalkL2Miss();
  const std::uint64_t data = counters.TotalDram();
  const std::uint64_t total = walk + data;
  return total == 0 ? 0.0 : static_cast<double>(walk) / static_cast<double>(total);
}

double MaxFaultTimeShare(const EpochCounters& counters, Cycles epoch_wall) {
  if (epoch_wall == 0) {
    return 0.0;
  }
  double max_share = 0.0;
  for (const auto& core : counters.cores) {
    max_share = std::max(
        max_share, static_cast<double>(core.fault_cycles) / static_cast<double>(epoch_wall));
  }
  return max_share;
}

double PamupPct(const PageAggMap& pages) {
  std::uint64_t total = 0;
  std::uint64_t most_used = 0;
  for (const auto& [base, agg] : pages) {
    if (agg.dram == 0) {
      continue;  // the paper ignores pages never serviced from DRAM
    }
    total += agg.total;
    most_used = std::max<std::uint64_t>(most_used, agg.total);
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(most_used) / static_cast<double>(total);
}

int CountHotPages(const PageAggMap& pages, double threshold_pct) {
  std::uint64_t total = 0;
  for (const auto& [base, agg] : pages) {
    if (agg.dram > 0) {
      total += agg.total;
    }
  }
  if (total == 0) {
    return 0;
  }
  int hot = 0;
  for (const auto& [base, agg] : pages) {
    if (agg.dram == 0) {
      continue;
    }
    const double share = 100.0 * static_cast<double>(agg.total) / static_cast<double>(total);
    if (share > threshold_pct) {
      ++hot;
    }
  }
  return hot;
}

double PspPct(const PageAggMap& pages) {
  std::uint64_t total = 0;
  std::uint64_t shared = 0;
  for (const auto& [base, agg] : pages) {
    if (agg.dram == 0) {
      continue;
    }
    total += agg.total;
    if (agg.SharerCount() >= 2) {
      shared += agg.total;
    }
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(shared) / static_cast<double>(total);
}

NumaMetrics ComputeNumaMetrics(const EpochCounters& counters, const PageAggMap& pages,
                               Cycles epoch_wall) {
  NumaMetrics metrics;
  metrics.lar_pct = LarPct(counters);
  metrics.imbalance_pct = ControllerImbalancePct(counters);
  metrics.pamup_pct = PamupPct(pages);
  metrics.nhp = CountHotPages(pages);
  metrics.psp_pct = PspPct(pages);
  metrics.walk_l2_miss_frac = WalkL2MissFraction(counters);
  metrics.max_fault_time_share = MaxFaultTimeShare(counters, epoch_wall);
  return metrics;
}

}  // namespace numalp
