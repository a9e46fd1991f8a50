#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "src/core/config.h"
#include "src/report/sink.h"
#include "src/topo/topology.h"
#include "src/trace/tracegen.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"

namespace perfbench {
namespace {

using numalp::PolicyKind;

// Grid and trace-replay parallelism: one process, at most four workers, never
// more than the host has.
int HostJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(4u, hw));
}

numalp::SimConfig BaseSim(std::uint64_t seed, bool smoke) {
  numalp::SimConfig sim;
  sim.seed = seed;
  if (smoke) {
    sim.max_epochs = 3;
    sim.accesses_per_thread_per_epoch = 512;
  }
  return sim;
}

Cell MakeCell(const numalp::Topology& topo, const numalp::WorkloadSpec& workload,
              PolicyKind kind, const numalp::SimConfig& sim, int baseline, int seed_index) {
  Cell cell;
  cell.spec.topo = topo;
  cell.spec.workload = workload;
  cell.spec.policy = numalp::MakePolicyConfig(kind);
  cell.spec.sim = sim;
  cell.baseline = baseline;
  cell.seed_index = seed_index;
  return cell;
}

// The union of the Figure 2 and Figure 3 grids at default fidelity, one seed
// per run: the traced run executes every cell serially and must finish in a
// few minutes, which three seeds' 192 cells do not.
Plan PaperGrid(std::uint64_t seed, bool smoke) {
  Plan plan;
  plan.name = "paper-grid";
  plan.jobs = HostJobs();
  numalp::ExperimentGrid grid;
  // Longest cells first (machine B's cells take 2-4x machine A's; within a
  // machine, in the measured order below), so the pool's tail is short cells
  // and the makespan does not hinge on when a long cell happens to start.
  grid.machines = {numalp::Topology::MachineB(), numalp::Topology::MachineA()};
  grid.workloads = numalp::AffectedSubset();
  const std::vector<numalp::BenchmarkId> longest_first = {
      numalp::BenchmarkId::kSSCA,  numalp::BenchmarkId::kMatrixMultiply,
      numalp::BenchmarkId::kSPECjbb, numalp::BenchmarkId::kWrmem,
      numalp::BenchmarkId::kUA_C,  numalp::BenchmarkId::kCG_D,
      numalp::BenchmarkId::kUA_B,  numalp::BenchmarkId::kLU_B};
  const auto rank = [&](numalp::BenchmarkId id) {
    return std::find(longest_first.begin(), longest_first.end(), id) - longest_first.begin();
  };
  std::stable_sort(grid.workloads.begin(), grid.workloads.end(),
                   [&](numalp::BenchmarkId a, numalp::BenchmarkId b) { return rank(a) < rank(b); });
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefour2M,
                   PolicyKind::kCarrefourLp};
  grid.num_seeds = 1;
  grid.sim = BaseSim(seed, smoke);
  // RunGrid's expansion order: per (machine, workload, seed) the shared
  // Linux-4K baseline, then every other policy.
  for (const numalp::Topology& topo : grid.machines) {
    for (const numalp::BenchmarkId id : grid.workloads) {
      const numalp::WorkloadSpec workload = numalp::MakeWorkloadSpec(id, topo);
      for (int s = 0; s < grid.num_seeds; ++s) {
        numalp::SimConfig sim = grid.sim;
        sim.seed = numalp::CellSeed(grid.sim.seed, s);
        const int baseline = static_cast<int>(plan.cells.size());
        plan.cells.push_back(MakeCell(topo, workload, PolicyKind::kLinux4K, sim, -1, s));
        for (const PolicyKind kind : grid.policies) {
          if (kind != PolicyKind::kLinux4K) {
            plan.cells.push_back(MakeCell(topo, workload, kind, sim, baseline, s));
          }
        }
      }
    }
  }
  plan.grid = grid;
  return plan;
}

// Long CG.D cells on the 8-node preset (Linux-4K baseline, then
// Carrefour-LP), run one cell at a time with four intra-cell shards. Epochs
// are twice the default length, so the speculative windows (not the
// epoch-boundary policy work) carry the run. Three seeds per run: a single
// Carrefour-LP cell's host cost moves by ~10% with its seed (how often
// speculative windows abort depends on what the policy split), and the
// average over three keeps that out of the run-to-run spread.
Plan ShardedCell(std::uint64_t seed, bool smoke) {
  Plan plan;
  plan.name = "sharded-cell";
  plan.jobs = 1;
  const numalp::Topology topo = numalp::Topology::Epyc8();
  const numalp::WorkloadSpec workload = numalp::MakeWorkloadSpec(numalp::BenchmarkId::kCG_D, topo);
  for (int s = 0; s < 3; ++s) {
    numalp::SimConfig sim = BaseSim(numalp::CellSeed(seed, s), smoke);
    if (!smoke) {
      sim.accesses_per_thread_per_epoch = 8192;
    }
    sim.shards = 4;
    const int baseline = static_cast<int>(plan.cells.size());
    plan.cells.push_back(MakeCell(topo, workload, PolicyKind::kLinux4K, sim, -1, s));
    plan.cells.push_back(MakeCell(topo, workload, PolicyKind::kCarrefourLp, sim, baseline, s));
  }
  return plan;
}

// Synthesized traces replayed on machine A: the checkpoint-churn storm plus
// one steady HPC profile, each under Linux-4K, always-2M THP and Carrefour-LP.
Plan TraceChurn(std::uint64_t seed, bool smoke, const std::string& work_dir) {
  Plan plan;
  plan.name = "trace-churn";
  plan.jobs = HostJobs();
  const numalp::Topology topo = numalp::Topology::MachineA();
  const numalp::SimConfig sim = BaseSim(numalp::CellSeed(seed, 0), smoke);
  for (const std::string profile : {"ckpt-churn", "lammps"}) {
    numalp::trace::TracegenOptions gen;
    gen.profile = profile;
    gen.topo = topo;
    gen.seed = seed;
    gen.accesses_per_thread = static_cast<std::uint32_t>(sim.accesses_per_thread_per_epoch);
    gen.epochs = smoke ? 4 : 0;
    const std::string path =
        (std::filesystem::path(work_dir) / ("perfbench_" + profile + "_" + std::to_string(seed) +
                                            "_" + std::to_string(::getpid()) + ".trace"))
            .string();
    const auto start = std::chrono::steady_clock::now();
    numalp::trace::GenerateTrace(gen, path);
    plan.trace_gen_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    plan.trace_files.push_back(path);
    const numalp::WorkloadSpec workload = numalp::MakeTraceWorkloadSpec(path);
    const int baseline = static_cast<int>(plan.cells.size());
    plan.cells.push_back(MakeCell(topo, workload, PolicyKind::kLinux4K, sim, -1, 0));
    plan.cells.push_back(MakeCell(topo, workload, PolicyKind::kThp, sim, baseline, 0));
    plan.cells.push_back(MakeCell(topo, workload, PolicyKind::kCarrefourLp, sim, baseline, 0));
  }
  return plan;
}

}  // namespace

Plan MakePlan(const std::string& workload, std::uint64_t seed, bool smoke,
              const std::string& work_dir) {
  if (workload == "paper-grid") {
    return PaperGrid(seed, smoke);
  }
  if (workload == "sharded-cell") {
    return ShardedCell(seed, smoke);
  }
  if (workload == "trace-churn") {
    return TraceChurn(seed, smoke, work_dir);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

void RemoveTraces(const Plan& plan) {
  for (const std::string& path : plan.trace_files) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

Outcome RunPlan(const Plan& plan) {
  Outcome outcome;
  const numalp::ExperimentRunner runner(plan.jobs);
  if (plan.grid.has_value()) {
    const numalp::ExperimentGrid& grid = *plan.grid;
    outcome.grid = numalp::RunGrid(grid, runner);
    const numalp::GridResults& results = *outcome.grid;
    for (int m = 0; m < results.num_machines(); ++m) {
      for (int w = 0; w < results.num_workloads(); ++w) {
        for (int s = 0; s < results.num_seeds(); ++s) {
          outcome.cells.push_back(&results.Baseline(m, w, s));
          for (int p = 0; p < results.num_policies(); ++p) {
            if (grid.policies[static_cast<std::size_t>(p)] != PolicyKind::kLinux4K) {
              outcome.cells.push_back(&results.At(m, w, p, s));
            }
          }
        }
      }
    }
  } else {
    std::vector<numalp::RunSpec> specs;
    specs.reserve(plan.cells.size());
    for (const Cell& cell : plan.cells) {
      specs.push_back(cell.spec);
    }
    outcome.flat = runner.Run(specs);
    for (const numalp::RunResult& result : outcome.flat) {
      outcome.cells.push_back(&result);
    }
  }
  if (outcome.cells.size() != plan.cells.size()) {
    throw std::logic_error("perfbench: result count does not match the plan");
  }
  return outcome;
}

numalp::RunSpec SerialSpec(const numalp::RunSpec& spec) {
  numalp::RunSpec serial = spec;
  serial.sim.shards = 1;
  return serial;
}

numalp::report::ResultRow MakeRow(const Plan& plan,
                                  const std::vector<const numalp::RunResult*>& results,
                                  std::size_t index) {
  const Cell& cell = plan.cells[index];
  const numalp::RunResult* baseline =
      cell.baseline >= 0 ? results[static_cast<std::size_t>(cell.baseline)] : nullptr;
  return numalp::report::MakeResultRow(plan.name, cell.spec, *results[index], baseline,
                                       cell.seed_index, cell.spec.sim.clock_ghz);
}

std::string RowJsonl(const numalp::report::ResultRow& row) {
  std::ostringstream out;
  numalp::report::JsonlSink sink(out);
  sink.Write(row);
  return out.str();
}

std::string FirstDifferingField(const numalp::report::ResultRow& a,
                                const numalp::report::ResultRow& b) {
  for (const numalp::report::ResultField& field : numalp::report::ResultSchema()) {
    if (numalp::report::FieldToString(a, field) != numalp::report::FieldToString(b, field)) {
      return field.name;
    }
  }
  return "";
}

}  // namespace perfbench
