// Hot-page inspector: runs a CG-like workload under THP and prints the
// per-page access distribution the way Carrefour-LP's reactive component
// sees it — demonstrating the hot-page effect (Section 3.1) and how the 6%
// threshold identifies the pages that must be split rather than migrated.
// The run itself is also emitted as a ResultRow (nhp carries the count);
// the per-page listing is prose and prints only in the default md mode,
// from a second run of the THP cell (rows keep no per-page data).
//
//   ./hot_page_inspector [--machine A|B] [standard flags]
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/metrics/numa_metrics.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

int main(int argc, char** argv) {
  const numalp::report::ToolInfo info = {
      "hot_page_inspector", "hot_page",
      "the per-page access distribution behind the hot-page effect"};
  numalp::Topology topo = numalp::Topology::MachineB();
  const numalp::report::Options options = numalp::report::ParseToolArgs(
      argc, argv, info, {numalp::report::MachineFlag(&topo)});

  // The Linux-4K baseline runs too (concurrently), so the THP row carries a
  // real improvement_pct instead of a fake 0 that would poison the pooled
  // qualitative checks.
  const numalp::WorkloadSpec cg = numalp::MakeWorkloadSpec(numalp::BenchmarkId::kCG_D, topo);
  numalp::report::Sweep sweep;
  sweep.AddBaseline({topo, cg, {}, options.sim}, "", 0, {numalp::PolicyKind::kThp});

  numalp::report::GridReport report(options, info);
  const std::vector<numalp::RunResult> results = report.Run(sweep);
  report.Finish();
  const numalp::RunResult& thp = results[1];
  if (!options.human()) {
    return 0;
  }

  // Results keep only the page metrics, so the listing comes from a rerun
  // of the THP cell: runs are deterministic, so its pages are the row's.
  numalp::Simulation thp_sim(topo, cg, numalp::MakePolicyConfig(numalp::PolicyKind::kThp),
                             options.sim);
  thp_sim.Run();

  // Sort the run's page aggregates by access share.
  std::uint64_t total = 0;
  std::vector<std::pair<numalp::Addr, const numalp::PageAgg*>> pages;
  for (const auto& [base, agg] : thp_sim.cumulative_pages()) {
    if (agg.dram > 0) {
      total += agg.total;
      pages.emplace_back(base, &agg);
    }
  }
  std::sort(pages.begin(), pages.end(),
            [](const auto& a, const auto& b) { return a.second->total > b.second->total; });

  std::printf("\nCG.D under THP on %s: top pages by access share\n", topo.name().c_str());
  std::printf("(hot threshold: >%.0f%% of accesses; %d NUMA nodes)\n\n",
              numalp::kHotPageSharePct, topo.num_nodes());
  std::printf("%4s %-14s %5s %8s %6s %8s %8s\n", "rank", "page", "size", "share%", "node",
              "sharers", "hot?");
  for (std::size_t i = 0; i < std::min<std::size_t>(12, pages.size()); ++i) {
    const auto& [base, agg] = pages[i];
    const double share = 100.0 * static_cast<double>(agg->total) / static_cast<double>(total);
    std::printf("%4zu 0x%012llx %5s %7.2f%% %6d %8d %8s\n", i + 1,
                static_cast<unsigned long long>(base), std::string(NameOf(agg->size)).c_str(),
                share, agg->home_node, agg->SharerCount(),
                share > numalp::kHotPageSharePct ? "HOT" : "");
  }
  std::printf(
      "\nNHP=%d hot pages on %d nodes: fewer hot pages than nodes means no migration\n"
      "or interleaving can balance the controllers — only splitting can (Section 3.1).\n",
      thp.Nhp(), topo.num_nodes());
  return 0;
}
