// Parallel experiment execution: a declarative (machine x workload x policy
// x seed) grid evaluated on a thread pool. Every cell is one independent
// Simulation whose seed is a pure function of its grid coordinates, so a grid
// produces bit-identical results at any --jobs value (DESIGN.md Section 5).
#ifndef NUMALP_SRC_CORE_RUNNER_H_
#define NUMALP_SRC_CORE_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/config.h"
#include "src/core/simulation.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp {

// One fully-resolved grid cell: a single Simulation run. The low-level unit
// for sweeps the declarative grid cannot express (threshold or sampling-rate
// ablations, explicit 1GB paging).
struct RunSpec {
  Topology topo = Topology::Tiny();
  WorkloadSpec workload;
  PolicyConfig policy;
  SimConfig sim;  // sim.seed is the cell's final, fully-derived seed
};

// Seed of the grid cell with seed axis index `seed_index`, derived from the
// grid's base seed. A pure function of the coordinates — never of execution
// order — which is what makes parallel grids deterministic.
std::uint64_t CellSeed(std::uint64_t base_seed, int seed_index);

// Observes cell completions during ExperimentRunner::Run. Invoked once per
// cell in ascending cell-index order — cell i+1 is reported only after cell
// i, regardless of the worker count or execution order — which is what lets
// the report sinks (src/report/) stream rows at the point of completion
// while staying byte-identical at any --jobs value (DESIGN.md Section 6).
using RunObserver =
    std::function<void(std::size_t index, const RunSpec& spec, const RunResult& result)>;

class ExperimentRunner {
 public:
  // jobs <= 0 selects the hardware concurrency. The runner reads no
  // environment: tools pass NUMALP_JOBS in through report::ParseToolArgs,
  // which rejects malformed values.
  explicit ExperimentRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  // Registers the completion observer (replacing any previous one). A cell
  // is reported as soon as it and every lower-indexed cell have finished;
  // calls are serialized and never concurrent.
  void set_observer(RunObserver observer) { observer_ = std::move(observer); }

  // Resume support: cells [0, skip) are treated as already recorded — they
  // are not executed and not reported to the observer (their slots in the
  // returned vector stay default-constructed). Because the observer contract
  // is ascending-index delivery, a crashed grid's recorded cells are always
  // exactly such a prefix.
  void set_skip_prefix(std::size_t skip) { skip_prefix_ = skip; }

  // Executes every cell and returns results positionally: results[i] belongs
  // to cells[i] regardless of which worker ran it or in which order. A cell
  // that throws is recorded once as a stub RunResult carrying its
  // coordinates and the status "failed: <what>", and the grid carries on
  // (DESIGN.md Section 12.4): a cell's outcome depends only on its spec, so
  // running it again would fail the same way.
  std::vector<RunResult> Run(const std::vector<RunSpec>& cells) const;

 private:
  int jobs_ = 1;
  RunObserver observer_;
  std::size_t skip_prefix_ = 0;
};

// Declarative experiment grid. Cells are the cross product of the four axes;
// a Linux-4K baseline is always run per (machine, workload, seed) so every
// cell can report improvement against its own seed's baseline.
struct ExperimentGrid {
  std::vector<Topology> machines;
  std::vector<BenchmarkId> workloads;
  std::vector<PolicyKind> policies;
  int num_seeds = 3;
  SimConfig sim;
};

// Results of a grid run, indexed by the grid's axis positions.
class GridResults;

namespace internal {
// Where an expanded cell sits in its grid's slice: the position of its
// (machine, workload, seed) Linux-4K baseline (a baseline's own) and its
// index on the seed axis.
struct CellPlace {
  int baseline = 0;
  int seed_index = 0;
};
// Appends `grid`'s cells to `cells` and fills `out`'s index tables with
// positions relative to the start of the grid's slice; with `places`, also
// appends each cell's CellPlace. The one expansion of a grid into cells:
// runs and reports both read it.
void ExpandGrid(const ExperimentGrid& grid, std::vector<RunSpec>& cells, GridResults& out,
                std::vector<CellPlace>* places = nullptr);
}  // namespace internal

class GridResults {
 public:
  const RunResult& At(int machine, int workload, int policy, int seed) const;
  const RunResult& Baseline(int machine, int workload, int seed) const;

  int num_machines() const { return num_machines_; }
  int num_workloads() const { return num_workloads_; }
  int num_policies() const { return num_policies_; }
  int num_seeds() const { return num_seeds_; }

 private:
  friend std::vector<GridResults> RunGrids(const std::vector<ExperimentGrid>& grids,
                                           const ExperimentRunner& runner);
  friend void internal::ExpandGrid(const ExperimentGrid& grid, std::vector<RunSpec>& cells,
                                   GridResults& out, std::vector<internal::CellPlace>* places);

  int CellIndex(int machine, int workload, int policy, int seed) const;
  int BaselineIndex(int machine, int workload, int seed) const;

  std::vector<int> cell_index_;      // [m][w][p][s] -> position in results_
  std::vector<int> baseline_index_;  // [m][w][s] -> position in results_
  std::vector<RunResult> results_;
  int num_machines_ = 0;
  int num_workloads_ = 0;
  int num_policies_ = 0;
  int num_seeds_ = 0;
};

// Expands `grid` into cells (sharing each seed's baseline with any requested
// Linux-4K column), executes them on `runner`, and indexes the results.
GridResults RunGrid(const ExperimentGrid& grid,
                    const ExperimentRunner& runner = ExperimentRunner());

// Runs several grids' cells on one shared pool — for tables that mix
// (machine, workload) pairs a single cross product cannot express — and
// returns one GridResults per input grid.
std::vector<GridResults> RunGrids(const std::vector<ExperimentGrid>& grids,
                                  const ExperimentRunner& runner = ExperimentRunner());

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_RUNNER_H_
