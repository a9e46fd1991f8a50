// Page-level false-sharing detector: runs UA under 4KB pages and under THP
// and reports the PSP metric (accesses to pages shared by >= 2 threads) and
// LAR side by side, then shows Carrefour-LP recovering the locality by
// splitting — the paper's Table 2 / Table 3 story for UA. The psp_pct,
// lar_pct, imbalance_pct and splits row fields carry the story.
//
//   ./false_sharing_detector [--machine A|B] [standard flags]
#include <cstdio>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

int main(int argc, char** argv) {
  const numalp::report::ToolInfo info = {
      "false_sharing_detector", "false_sharing",
      "PSP / LAR under 4KB vs THP, and Carrefour-LP recovering the locality"};
  numalp::Topology topo = numalp::Topology::MachineA();
  const numalp::report::Options options = numalp::report::ParseToolArgs(
      argc, argv, info, {numalp::report::MachineFlag(&topo)});

  if (options.human()) {
    std::printf("UA.B on %s: page-level false sharing under large pages\n\n",
                topo.name().c_str());
  }

  numalp::ExperimentGrid grid;
  grid.machines = {topo};
  grid.workloads = {numalp::BenchmarkId::kUA_B};
  grid.policies = {numalp::PolicyKind::kLinux4K, numalp::PolicyKind::kThp,
                   numalp::PolicyKind::kCarrefour2M, numalp::PolicyKind::kCarrefourLp};
  grid.num_seeds = 1;
  grid.sim = options.sim;

  {
    numalp::report::GridReport report(options, info);
    report.Run(numalp::report::Sweep().AddGrid(grid));
  }

  if (options.human()) {
    std::printf(
        "\nTHP makes each page span several threads' mesh slices (PSP jumps), so\n"
        "Carrefour-2M can only interleave them — locality stays low. Carrefour-LP\n"
        "demotes the falsely-shared pages and the pieces migrate back to their\n"
        "owners' nodes (LAR recovers, Table 3).\n");
  }
  return 0;
}
