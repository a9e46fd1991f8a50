#include "src/core/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "src/common/worker_pool.h"

namespace numalp {

std::uint64_t CellSeed(std::uint64_t base_seed, int seed_index) {
  return base_seed + static_cast<std::uint64_t>(seed_index) * 7919;
}

ExperimentRunner::ExperimentRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : std::max(1, static_cast<int>(std::thread::hardware_concurrency()))) {}

namespace {

// One per worker: the watchdog thread scans these and raises `cancel` when a
// cell overruns its armed deadline. deadline_ns == 0 means idle.
struct WatchdogSlot {
  std::atomic<bool> cancel{false};
  std::atomic<std::int64_t> deadline_ns{0};
};

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<RunResult> ExperimentRunner::Run(const std::vector<RunSpec>& cells) const {
  std::vector<RunResult> results(cells.size());
  const std::size_t skip = std::min(skip_prefix_, cells.size());

  const int workers =
      std::max(1, std::min<int>(jobs_, static_cast<int>(cells.size() - skip)));
  std::vector<WatchdogSlot> slots(static_cast<std::size_t>(workers));
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  if (cell_deadline_ms_ > 0) {
    watchdog = std::thread([&]() {
      while (!watchdog_stop.load(std::memory_order_relaxed)) {
        const std::int64_t now = NowNs();
        for (WatchdogSlot& slot : slots) {
          const std::int64_t deadline = slot.deadline_ns.load(std::memory_order_relaxed);
          if (deadline != 0 && now > deadline) {
            slot.cancel.store(true, std::memory_order_relaxed);
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }

  // Cell-failure isolation: a cell that throws or gets cancelled by the
  // watchdog is retried up to max_cell_retries_ times (each attempt is a
  // fresh Simulation, so a successful retry is the exact deterministic
  // result); when the budget runs out, a stub row with the cell's
  // coordinates and a "failed:"/"deadline" status is recorded and the grid
  // carries on. Results are deterministic either way: the outcome of a cell
  // never depends on other cells.
  auto run_cell = [&](std::size_t i, WatchdogSlot& slot) {
    const RunSpec& spec = cells[i];
    for (int attempt = 0;; ++attempt) {
      try {
        Simulation simulation(spec.topo, spec.workload, spec.policy, spec.sim);
        if (cell_deadline_ms_ > 0) {
          slot.cancel.store(false, std::memory_order_relaxed);
          simulation.set_cancel_flag(&slot.cancel);
          slot.deadline_ns.store(NowNs() + cell_deadline_ms_ * 1'000'000,
                                 std::memory_order_relaxed);
        }
        RunResult result = simulation.Run();
        slot.deadline_ns.store(0, std::memory_order_relaxed);
        if (result.status == "deadline" && attempt < max_cell_retries_) {
          continue;
        }
        results[i] = std::move(result);
        return;
      } catch (const std::exception& e) {
        slot.deadline_ns.store(0, std::memory_order_relaxed);
        if (attempt < max_cell_retries_) {
          continue;
        }
        RunResult failed;
        failed.workload = spec.workload.name;
        failed.machine = spec.topo.name();
        failed.policy = spec.policy.kind;
        failed.status = std::string("failed: ") + e.what();
        results[i] = std::move(failed);
        return;
      }
    }
  };

  // Register this runner's worker count with the oversubscription guard for
  // the duration of the grid: simulations created inside run_cell clamp
  // their intra-cell shard count to the host budget divided by the active
  // jobs (src/common/worker_pool.h), so grid-level and intra-cell parallelism never
  // multiply into more threads than the host has.
  const ScopedActiveRunnerJobs jobs_guard(std::max(1, workers));
  if (workers <= 1 || cells.size() - skip <= 1) {
    for (std::size_t i = skip; i < cells.size(); ++i) {
      run_cell(i, slots[0]);
      if (observer_) {
        observer_(i, cells[i], results[i]);
      }
    }
  } else {
    // Observer plumbing: workers mark completed cells and flush the
    // contiguous done-prefix under the mutex, so the observer sees cells in
    // ascending index order no matter which worker finished them. A cell's
    // result is published by its worker before it takes the mutex, so the
    // flusher reads it safely.
    std::mutex emit_mutex;
    std::vector<char> done(cells.size(), 0);
    std::size_t next_to_emit = skip;

    std::atomic<std::size_t> next{skip};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w]() {
        WatchdogSlot& slot = slots[static_cast<std::size_t>(w)];
        for (std::size_t i = next.fetch_add(1); i < cells.size(); i = next.fetch_add(1)) {
          run_cell(i, slot);
          if (observer_) {
            const std::lock_guard<std::mutex> lock(emit_mutex);
            done[i] = 1;
            while (next_to_emit < cells.size() && done[next_to_emit]) {
              observer_(next_to_emit, cells[next_to_emit], results[next_to_emit]);
              ++next_to_emit;
            }
          }
        }
      });
    }
    for (std::thread& worker : pool) {
      worker.join();
    }
  }

  if (watchdog.joinable()) {
    watchdog_stop.store(true, std::memory_order_relaxed);
    watchdog.join();
  }
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
