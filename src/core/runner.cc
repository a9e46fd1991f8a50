#include "src/core/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/worker_pool.h"

namespace numalp {

std::uint64_t CellSeed(std::uint64_t base_seed, int seed_index) {
  return base_seed + static_cast<std::uint64_t>(seed_index) * 7919;
}

ExperimentRunner::ExperimentRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : std::max(1, static_cast<int>(std::thread::hardware_concurrency()))) {}

namespace {

// Runs one cell in isolation: an exception becomes a stub row carrying the
// cell's coordinates, so one bad cell does not kill the grid.
RunResult RunCell(const RunSpec& spec) {
  try {
    Simulation simulation(spec.topo, spec.workload, spec.policy, spec.sim);
    return simulation.Run();
  } catch (const std::exception& e) {
    RunResult failed;
    failed.workload = spec.workload.name;
    failed.machine = spec.topo.name();
    failed.policy = spec.policy.kind;
    failed.status = std::string("failed: ") + e.what();
    return failed;
  }
}

}  // namespace

std::vector<RunResult> ExperimentRunner::Run(const std::vector<RunSpec>& cells) const {
  std::vector<RunResult> results(cells.size());
  const std::size_t skip = std::min(skip_prefix_, cells.size());
  const int workers =
      std::max(1, std::min<int>(jobs_, static_cast<int>(cells.size() - skip)));

  // Register this runner's worker count with the oversubscription guard for
  // the duration of the grid: simulations created inside RunCell clamp
  // their intra-cell shard count to the host budget divided by the active
  // jobs (src/common/worker_pool.h), so grid-level and intra-cell parallelism never
  // multiply into more threads than the host has.
  const ScopedActiveRunnerJobs jobs_guard(workers);

  // Workers claim cells in index order, mark them done and flush the
  // contiguous done-prefix to the observer under the mutex, so the observer
  // sees cells in ascending index order no matter which worker finished
  // them. A cell's result is written by its worker before it takes the
  // mutex, so the flusher reads it safely. At one worker the pool runs the
  // loop inline on the calling thread.
  std::mutex emit_mutex;
  std::vector<char> done(cells.size(), 0);
  std::size_t next_to_emit = skip;
  std::atomic<std::size_t> next{skip};
  ShardPool pool(workers);
  pool.Run([&](int) {
    for (std::size_t i = next.fetch_add(1); i < cells.size(); i = next.fetch_add(1)) {
      results[i] = RunCell(cells[i]);
      const std::lock_guard<std::mutex> lock(emit_mutex);
      done[i] = 1;
      for (; next_to_emit < cells.size() && done[next_to_emit]; ++next_to_emit) {
        if (observer_) {
          observer_(next_to_emit, cells[next_to_emit], results[next_to_emit]);
        }
      }
    }
  });
  return results;
}

int GridResults::CellIndex(int machine, int workload, int policy, int seed) const {
  return cell_index_[static_cast<std::size_t>(
      ((machine * num_workloads_ + workload) * num_policies_ + policy) * num_seeds_ + seed)];
}

int GridResults::BaselineIndex(int machine, int workload, int seed) const {
  return baseline_index_[static_cast<std::size_t>(
      (machine * num_workloads_ + workload) * num_seeds_ + seed)];
}

const RunResult& GridResults::At(int machine, int workload, int policy, int seed) const {
  return results_[static_cast<std::size_t>(CellIndex(machine, workload, policy, seed))];
}

const RunResult& GridResults::Baseline(int machine, int workload, int seed) const {
  return results_[static_cast<std::size_t>(BaselineIndex(machine, workload, seed))];
}

namespace internal {

// The caller hands each GridResults its own slice of the executed results,
// so the recorded indices are relative to this grid's slice start.
void ExpandGrid(const ExperimentGrid& grid, std::vector<RunSpec>& cells, GridResults& out,
                std::vector<CellPlace>* places) {
  out.num_machines_ = static_cast<int>(grid.machines.size());
  out.num_workloads_ = static_cast<int>(grid.workloads.size());
  out.num_policies_ = static_cast<int>(grid.policies.size());
  out.num_seeds_ = grid.num_seeds;
  out.cell_index_.assign(static_cast<std::size_t>(out.num_machines_) *
                             static_cast<std::size_t>(out.num_workloads_) *
                             static_cast<std::size_t>(out.num_policies_) *
                             static_cast<std::size_t>(out.num_seeds_),
                         -1);
  out.baseline_index_.assign(static_cast<std::size_t>(out.num_machines_) *
                                 static_cast<std::size_t>(out.num_workloads_) *
                                 static_cast<std::size_t>(out.num_seeds_),
                             -1);

  const std::size_t slice_start = cells.size();
  for (int m = 0; m < out.num_machines_; ++m) {
    for (int w = 0; w < out.num_workloads_; ++w) {
      const Topology& topo = grid.machines[static_cast<std::size_t>(m)];
      const WorkloadSpec workload =
          MakeWorkloadSpec(grid.workloads[static_cast<std::size_t>(w)], topo);
      for (int s = 0; s < out.num_seeds_; ++s) {
        SimConfig seeded = grid.sim;
        seeded.seed = CellSeed(grid.sim.seed, s);

        RunSpec baseline;
        baseline.topo = topo;
        baseline.workload = workload;
        baseline.policy = MakePolicyConfig(PolicyKind::kLinux4K);
        baseline.sim = seeded;
        const int baseline_cell = static_cast<int>(cells.size() - slice_start);
        cells.push_back(baseline);
        if (places != nullptr) {
          places->push_back({baseline_cell, s});
        }
        out.baseline_index_[static_cast<std::size_t>(
            (m * out.num_workloads_ + w) * out.num_seeds_ + s)] = baseline_cell;

        for (int p = 0; p < out.num_policies_; ++p) {
          const PolicyKind kind = grid.policies[static_cast<std::size_t>(p)];
          const std::size_t flat = static_cast<std::size_t>(
              ((m * out.num_workloads_ + w) * out.num_policies_ + p) * out.num_seeds_ + s);
          // Simulations are deterministic, so a Linux-4K column would be
          // bit-identical to the baseline cell: share it instead of rerunning.
          if (kind == PolicyKind::kLinux4K) {
            out.cell_index_[flat] = baseline_cell;
            continue;
          }
          RunSpec cell;
          cell.topo = topo;
          cell.workload = workload;
          cell.policy = MakePolicyConfig(kind);
          cell.sim = seeded;
          out.cell_index_[flat] = static_cast<int>(cells.size() - slice_start);
          cells.push_back(cell);
          if (places != nullptr) {
            places->push_back({baseline_cell, s});
          }
        }
      }
    }
  }
}

}  // namespace internal

std::vector<GridResults> RunGrids(const std::vector<ExperimentGrid>& grids,
                                  const ExperimentRunner& runner) {
  std::vector<GridResults> out(grids.size());
  std::vector<RunSpec> cells;
  std::vector<std::size_t> slice_starts;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    slice_starts.push_back(cells.size());
    internal::ExpandGrid(grids[g], cells, out[g]);
  }
  const std::vector<RunResult> results = runner.Run(cells);
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const std::size_t begin = slice_starts[g];
    const std::size_t end = g + 1 < grids.size() ? slice_starts[g + 1] : results.size();
    out[g].results_.assign(results.begin() + static_cast<std::ptrdiff_t>(begin),
                           results.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

GridResults RunGrid(const ExperimentGrid& grid, const ExperimentRunner& runner) {
  std::vector<GridResults> results = RunGrids({grid}, runner);
  return std::move(results.front());
}

}  // namespace numalp
