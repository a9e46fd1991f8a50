// Quickstart: run one benchmark on a simulated NUMA machine under the four
// main system configurations and emit the paper's headline metrics as
// ResultRows (an aligned table by default; --format csv|jsonl for machines,
// --out-dir for files).
//
//   ./quickstart [--workload NAME] [--machine A|B] [standard flags]
//
// Defaults to CG.D on machine B — the paper's most dramatic hot-page case
// (THP loses 43% vs 4KB pages; Carrefour-LP wins it back by splitting).
#include <cstdio>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

int main(int argc, char** argv) {
  const numalp::report::ToolInfo info = {
      "quickstart", "quickstart",
      "one benchmark under the four main system configurations"};
  numalp::BenchmarkId bench = numalp::BenchmarkId::kCG_D;
  numalp::Topology topo = numalp::Topology::MachineB();
  const numalp::report::Options options = numalp::report::ParseToolArgs(
      argc, argv, info,
      {numalp::report::WorkloadFlag(&bench), numalp::report::MachineFlag(&topo)});

  if (options.human()) {
    std::printf("benchmark %s on %s (%d nodes x %d cores)\n\n",
                std::string(numalp::NameOf(bench)).c_str(), topo.name().c_str(),
                topo.num_nodes(), topo.node(0).num_cores);
  }

  numalp::ExperimentGrid grid;
  grid.machines = {topo};
  grid.workloads = {bench};
  grid.policies = {numalp::PolicyKind::kLinux4K, numalp::PolicyKind::kThp,
                   numalp::PolicyKind::kCarrefour2M, numalp::PolicyKind::kCarrefourLp};
  grid.num_seeds = 1;
  grid.sim = options.sim;

  numalp::report::GridReport report(options, info);
  report.Run(numalp::report::Sweep().AddGrid(grid));
  return 0;
}
