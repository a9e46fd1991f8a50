#include "src/core/experiment.h"

namespace numalp {

RunResult RunBenchmark(const Topology& topo, BenchmarkId bench, PolicyKind kind,
                       const SimConfig& sim) {
  Simulation simulation(topo, MakeWorkloadSpec(bench, topo), MakePolicyConfig(kind), sim);
  return simulation.Run();
}

std::vector<PolicySummary> ComparePolicies(const Topology& topo, BenchmarkId bench,
                                           const std::vector<PolicyKind>& policies,
                                           const SimConfig& sim, int num_seeds,
                                           const ExperimentRunner& runner) {
  ExperimentGrid grid;
  grid.machines = {topo};
  grid.workloads = {bench};
  grid.policies = policies;
  grid.num_seeds = num_seeds;
  grid.sim = sim;
  return RunGrid(grid, runner).SummarizeAll(0, 0);
}

}  // namespace numalp
