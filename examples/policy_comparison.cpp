// Policy comparison over a custom workload built directly against the
// library API — the template for users who want to model their *own*
// application instead of the paper's suite. The workload below is a small
// key-value store: a Zipf-hot shared table plus per-connection scratch.
// All six policy runs are declared as RunSpec cells, executed in parallel
// by the ExperimentRunner (--jobs), and emitted as ResultRows
// against the Linux-4K cell (--format / --out-dir select the sinks).
//
//   ./policy_comparison [standard flags; --help lists them]
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

int main(int argc, char** argv) {
  const numalp::report::ToolInfo info = {
      "policy_comparison", "policy_comparison",
      "all six policies over a custom kv-store workload model"};
  const numalp::report::Options options = numalp::report::ParseToolArgs(argc, argv, info);
  const numalp::Topology topo = numalp::Topology::MachineB();

  // Describe the application's memory behaviour as regions.
  numalp::WorkloadSpec spec;
  spec.name = "kv-store";
  spec.steady_accesses_per_thread = 120'000;
  {
    numalp::RegionSpec table;
    table.name = "hash-table";
    table.bytes = 96 * numalp::kMiB;
    table.access_share = 0.7;
    table.pattern = numalp::PatternKind::kZipf;
    table.zipf_s = 0.75;
    table.zipf_block_shuffle = 31;  // hot keys scattered by the allocator
    table.dram_intensity = 0.55;
    spec.regions.push_back(table);

    numalp::RegionSpec connections;
    connections.name = "connection-buffers";
    connections.bytes = static_cast<std::uint64_t>(topo.num_cores()) * 2 * numalp::kMiB;
    connections.access_share = 0.3;
    connections.pattern = numalp::PatternKind::kPartitioned;
    connections.local_fraction = 1.0;
    connections.setup_owner = numalp::SetupOwner::kPartitionOwner;
    connections.dram_intensity = 0.2;
    spec.regions.push_back(connections);
  }

  numalp::report::Sweep sweep;
  sweep.AddBaseline({topo, spec, {}, options.sim}, "", 0,
                    {numalp::PolicyKind::kThp, numalp::PolicyKind::kCarrefour2M,
                     numalp::PolicyKind::kReactiveOnly, numalp::PolicyKind::kConservativeOnly,
                     numalp::PolicyKind::kCarrefourLp});

  numalp::report::GridReport report(options, info);
  report.Run(sweep);
  return 0;
}
