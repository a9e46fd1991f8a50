// Shared scaffolding for the figure/table benches. Every bench declares its
// sweep (an ExperimentGrid, several grids, or a flat RunSpec list) and its
// ToolInfo, then hands both to a report::GridReport: the whole sweep runs on
// one ExperimentRunner thread pool (--jobs / NUMALP_JOBS; results identical
// at any value, DESIGN.md Section 5) and every cell is emitted as a typed
// ResultRow through the configured sinks (--format stdout, --out-dir files;
// DESIGN.md Section 6). Command-line handling is the uniform parser in
// src/report/options.h.
#ifndef NUMALP_BENCH_BENCH_UTIL_H_
#define NUMALP_BENCH_BENCH_UTIL_H_

#include <vector>

#include "src/core/runner.h"
#include "src/report/collector.h"
#include "src/report/options.h"

namespace numalp_bench {

// The standard figure bench: one (machines x workloads x policies x seeds)
// grid, every cell (baselines included) written through the sinks. This is
// the whole main() of fig1-fig5, table2 and the overhead assessment.
inline int RunFigureBench(int argc, char** argv, const numalp::report::ToolInfo& info,
                          const std::vector<numalp::Topology>& machines,
                          const std::vector<numalp::BenchmarkId>& workloads,
                          const std::vector<numalp::PolicyKind>& policies, int seeds) {
  const numalp::report::Options options = numalp::report::ParseToolArgs(argc, argv, info);
  numalp::ExperimentGrid grid;
  grid.machines = machines;
  grid.workloads = workloads;
  grid.policies = policies;
  grid.num_seeds = seeds;
  grid.sim = options.sim;
  numalp::report::GridReport report(options, info);
  report.Run(grid);
  return 0;
}

// Variant for tables that mix (machine, workload) pairs: one grid per
// machine, executed together on one shared pool via RunGrids.
inline int RunFigureBench(int argc, char** argv, const numalp::report::ToolInfo& info,
                          std::vector<numalp::ExperimentGrid> grids) {
  const numalp::report::Options options = numalp::report::ParseToolArgs(argc, argv, info);
  for (numalp::ExperimentGrid& grid : grids) {
    grid.sim = options.sim;
  }
  numalp::report::GridReport report(options, info);
  report.Run(grids);
  return 0;
}

}  // namespace numalp_bench

#endif  // NUMALP_BENCH_BENCH_UTIL_H_
