// The benchmark's three workloads, expressed as flat cell lists that run
// through the simulator's public entry points only: RunGrid (paper-grid),
// ExperimentRunner::Run (sharded-cell, trace-churn), Simulation::Run (the
// serial reference pass of the traced run) and trace::GenerateTrace.
#ifndef NUMALP_PERFBENCH_WORKLOADS_H_
#define NUMALP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/report/result_row.h"

namespace perfbench {

// One cell plus what its result row needs: the index of its same-seed
// Linux-4K baseline in the plan (-1 when the cell is its own baseline) and its
// position on the seed axis.
struct Cell {
  numalp::RunSpec spec;
  int baseline = -1;
  int seed_index = 0;
};

struct Plan {
  std::string name;
  int jobs = 1;
  std::vector<Cell> cells;
  // paper-grid runs as a declarative grid; `cells` is its expansion in
  // RunGrid's order.
  std::optional<numalp::ExperimentGrid> grid;
  // trace-churn: the synthesized traces and how long each took to generate.
  std::vector<std::string> trace_files;
  std::vector<double> trace_gen_s;
};

// Results of one run of a plan, addressable in cell order. Holds the grid's
// own result table rather than copies of it (a paper-grid result set is
// hundreds of megabytes).
struct Outcome {
  std::optional<numalp::GridResults> grid;
  std::vector<numalp::RunResult> flat;
  std::vector<const numalp::RunResult*> cells;
};

// Builds the plan for `workload` from `seed`: the cell list, and for
// trace-churn the traces themselves (written under `work_dir`). `smoke`
// shrinks every run to a few short epochs for the self-test. Throws
// std::invalid_argument for an unknown workload.
Plan MakePlan(const std::string& workload, std::uint64_t seed, bool smoke,
              const std::string& work_dir);

// Deletes the plan's trace files.
void RemoveTraces(const Plan& plan);

// Runs every cell the way a user runs the workload: the grid on plan.jobs
// workers, or the flat cell list on an ExperimentRunner.
Outcome RunPlan(const Plan& plan);

// The cell's spec for the serial reference: one shard (and, by running it
// directly, one worker).
numalp::RunSpec SerialSpec(const numalp::RunSpec& spec);

// The result row of cell `index`, its baseline resolved within `results`.
numalp::report::ResultRow MakeRow(const Plan& plan,
                                  const std::vector<const numalp::RunResult*>& results,
                                  std::size_t index);

// The row serialized exactly as the JSONL sink writes it.
std::string RowJsonl(const numalp::report::ResultRow& row);

// Name of the first schema field whose serialized value differs, or "" when
// the rows are byte-identical.
std::string FirstDifferingField(const numalp::report::ResultRow& a,
                                const numalp::report::ResultRow& b);

}  // namespace perfbench

#endif  // NUMALP_PERFBENCH_WORKLOADS_H_
