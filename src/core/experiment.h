// Experiment harness shared by the bench binaries: runs a benchmark under a
// set of policies across several seeds (first-touch races and interleave
// targets are stochastic, exactly like reruns on real hardware) and reports
// seed-averaged improvements plus representative metrics.
//
// This is a convenience wrapper over the grid subsystem in src/core/runner.h;
// benches needing more than one (machine, benchmark) pair should declare an
// ExperimentGrid directly so the whole sweep shares one thread pool.
#ifndef NUMALP_SRC_CORE_EXPERIMENT_H_
#define NUMALP_SRC_CORE_EXPERIMENT_H_

#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp {

// Convenience wrapper used by benches and examples: builds the named
// workload on `topo`, runs it under `kind`, returns the result.
RunResult RunBenchmark(const Topology& topo, BenchmarkId bench, PolicyKind kind,
                       const SimConfig& sim);

// Runs `bench` on `topo` under each policy (plus the Linux-4K baseline) for
// `num_seeds` seeds and summarizes. The baseline itself can be requested as
// one of `policies` (its improvement is 0 by construction only for itself).
// Cells execute in parallel on `runner`'s thread pool.
std::vector<PolicySummary> ComparePolicies(const Topology& topo, BenchmarkId bench,
                                           const std::vector<PolicyKind>& policies,
                                           const SimConfig& sim, int num_seeds = 3,
                                           const ExperimentRunner& runner = ExperimentRunner());

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_EXPERIMENT_H_
