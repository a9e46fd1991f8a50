// perf_hotpath — wall-clock performance harness for the simulation engine.
//
// Unlike every other bench (which measures the *simulated* machine), this
// one measures the *simulator*: host accesses/sec per policy on a
// representative cell, and end-to-end seconds for the fig2/fig3 grids — the
// workload whose committed baseline (BENCH_perf.json) future engine changes
// are gated against. The seed-checkout comparison in REPRODUCING.md is the
// end-to-end before/after number for the engine's algorithmic rewrites.
//
//   ./perf_hotpath [--out FILE]        write the measurements as JSON
//                  [--against FILE]   gate: exit 1 when a grid's wall-clock
//                                     exceeds tolerance x the baseline FILE
//                  [--tolerance X]    gate factor (default 2.0)
//                  [standard --epochs/--accesses/--jobs/--seed flags]
//
// Wall-clock numbers are machine-dependent; the committed BENCH_perf.json
// records the generating fidelity so CI compares like against like (the CI
// perf smoke runs a reduced grid and gates on the *ratio*-tolerant 2x bound,
// wide enough to absorb runner variance but not an engine regression).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace {

using numalp_bench::TotalAccesses;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  std::string name;
  double seconds = 0.0;
  std::uint64_t accesses = 0;
  // Window outcomes of a policy cell's run (grids leave it empty).
  numalp::SpeculationStats speculation;

  double AccessesPerSec() const { return seconds > 0 ? static_cast<double>(accesses) / seconds : 0.0; }
};

Measurement TimeGrid(const std::string& name, const numalp::ExperimentGrid& grid, int jobs) {
  const numalp::ExperimentRunner runner(jobs);
  const auto start = Clock::now();
  const numalp::GridResults results = numalp::RunGrid(grid, runner);
  Measurement m;
  m.name = name;
  m.seconds = SecondsSince(start);
  m.accesses = TotalAccesses(results);
  return m;
}

Measurement TimeCell(numalp::PolicyKind kind, const numalp::Topology& topo,
                     const numalp::SimConfig& sim) {
  const auto start = Clock::now();
  const numalp::RunResult result =
      numalp::RunBenchmark(topo, numalp::BenchmarkId::kCG_D, kind, sim);
  Measurement m;
  m.name = std::string(numalp::NameOf(kind));
  m.seconds = SecondsSince(start);
  m.accesses = result.totals.accesses;
  m.speculation = result.speculation;
  return m;
}

// One point of the intra-cell shard-scaling sweep: the flagship CG.D /
// Carrefour-LP cell at a forced shard count (forced because the sweep's
// whole point is to spawn real workers regardless of host load; results are
// bit-identical at every point, only the wall clock moves).
struct ShardPoint {
  int shards = 1;
  double seconds = 0.0;
  std::uint64_t accesses = 0;
  double speedup_vs_serial = 0.0;
};

std::vector<ShardPoint> RunShardSweep(const numalp::Topology& topo, numalp::SimConfig sim) {
  std::vector<ShardPoint> points;
  for (const int shards : {1, 2, 4, 8}) {
    numalp::SimConfig sharded = sim;
    sharded.shards = shards;
    sharded.shards_force = true;
    const auto start = Clock::now();
    const numalp::RunResult result = numalp::RunBenchmark(
        topo, numalp::BenchmarkId::kCG_D, numalp::PolicyKind::kCarrefourLp, sharded);
    ShardPoint point;
    point.shards = shards;
    point.seconds = SecondsSince(start);
    point.accesses = result.totals.accesses;
    point.speedup_vs_serial =
        points.empty() || point.seconds <= 0 ? 1.0 : points.front().seconds / point.seconds;
    points.push_back(point);
    std::fprintf(stderr, "perf_hotpath: shards=%d %8.3fs  (%.2fx vs serial)\n", shards,
                 point.seconds, point.speedup_vs_serial);
  }
  return points;
}

void WriteJson(std::ostream& out, const numalp::SimConfig& sim, int jobs,
               const std::vector<Measurement>& cells,
               const std::vector<Measurement>& grids,
               const std::vector<ShardPoint>& shard_scaling) {
  const auto emit = [&out](const Measurement& m, const char* kind) {
    out << "    {\"" << kind << "\":\"" << m.name << "\",\"seconds\":" << m.seconds
        << ",\"accesses\":" << m.accesses
        << ",\"accesses_per_sec\":" << m.AccessesPerSec();
    if (std::string(kind) == "policy") {
      const numalp::SpeculationStats& s = m.speculation;
      out << ",\"speculation\":{\"windows_committed\":" << s.windows_committed
          << ",\"windows_fault_aborted\":" << s.windows_fault_aborted
          << ",\"windows_hint_aborted\":" << s.windows_hint_aborted
          << ",\"setup_rounds\":" << s.setup_rounds << ",\"replay_rounds\":" << s.replay_rounds
          << ",\"penalty_rounds\":" << s.penalty_rounds << "}";
    }
    out << "}";
  };
  out.precision(17);
  out << "{\n  \"schema\": \"numalp-perf-v1\",\n";
  // host_concurrency: wall-clock baselines are machine-dependent; record the
  // generating host's core count so a gate reader can judge comparability.
  out << "  \"fidelity\": {\"epochs\":" << sim.max_epochs
      << ",\"accesses_per_thread\":" << sim.accesses_per_thread_per_epoch
      << ",\"jobs\":" << jobs
      << ",\"host_concurrency\":" << std::thread::hardware_concurrency() << "},\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    emit(cells[i], "policy");
    out << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"grids\": [\n";
  for (std::size_t i = 0; i < grids.size(); ++i) {
    emit(grids[i], "grid");
    out << (i + 1 < grids.size() ? ",\n" : "\n");
  }
  out << "  ]";
  if (!shard_scaling.empty()) {
    out << ",\n  \"shard_scaling\": [\n";
    for (std::size_t i = 0; i < shard_scaling.size(); ++i) {
      const ShardPoint& p = shard_scaling[i];
      out << "    {\"shards\":" << p.shards << ",\"seconds\":" << p.seconds
          << ",\"accesses\":" << p.accesses
          << ",\"speedup_vs_serial\":" << p.speedup_vs_serial << "}"
          << (i + 1 < shard_scaling.size() ? ",\n" : "\n");
    }
    out << "  ]";
  }
  out << "\n}\n";
}

// Pulls `"seconds":<x>` of the entry tagged `"grid":"<name>"` out of a
// BENCH_perf.json (this harness's own output; a full JSON parser would be
// overkill for one scalar).
double BaselineGridSeconds(const std::string& contents, const std::string& name) {
  const std::string tag = "\"grid\":\"" + name + "\"";
  const std::size_t at = contents.find(tag);
  if (at == std::string::npos) {
    return -1.0;
  }
  const std::string field = "\"seconds\":";
  const std::size_t sec = contents.find(field, at);
  if (sec == std::string::npos) {
    return -1.0;
  }
  return std::atof(contents.c_str() + sec + field.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string against_path;
  double tolerance = 2.0;
  bool shard_sweep = false;
  double min_shard_scaling = 0.0;
  const numalp::report::ToolInfo info = {
      "perf_hotpath", "perf",
      "simulator wall-clock: accesses/sec per policy and fig2+fig3 grid seconds"};
  const numalp::report::Options options = numalp::report::ParseToolArgs(
      argc, argv, info,
      {{"--out", nullptr, numalp::report::Text(&out_path, "FILE"),
        "write the measurements as BENCH_perf.json-style JSON"},
       {"--against", nullptr, numalp::report::Text(&against_path, "FILE"),
        "fail when a grid exceeds tolerance x FILE's seconds"},
       {"--tolerance", nullptr, numalp::report::Factor(&tolerance),
        "gate factor for --against (default 2.0)"},
       {"--shard-sweep", nullptr, numalp::report::Presence(&shard_sweep),
        "time the CG.D/Carrefour-LP cell at 1/2/4/8 forced shards"},
       {"--min-shard-scaling", nullptr, numalp::report::Factor(&min_shard_scaling),
        "fail when shards=4 speeds up less than Xx over shards=1 (implies --shard-sweep;"
        " skipped below 4 cores)"}});
  shard_sweep = shard_sweep || min_shard_scaling > 0;

  // Per-policy cells: CG.D on machine B — the paper's flagship hot-page case
  // exercises every engine path (THP faults, splits, migrations, promotions).
  const numalp::Topology machine_b = numalp::Topology::MachineB();
  const std::vector<numalp::PolicyKind> policies = {
      numalp::PolicyKind::kLinux4K,          numalp::PolicyKind::kThp,
      numalp::PolicyKind::kCarrefour2M,      numalp::PolicyKind::kReactiveOnly,
      numalp::PolicyKind::kConservativeOnly, numalp::PolicyKind::kCarrefourLp};
  std::vector<Measurement> cells;
  for (const numalp::PolicyKind kind : policies) {
    const Measurement m = TimeCell(kind, machine_b, options.sim);
    cells.push_back(m);
    const numalp::SpeculationStats& spec = m.speculation;
    std::fprintf(stderr,
                 "perf_hotpath: cell %-16s %8.3fs  %11.0f acc/s\n"
                 "perf_hotpath:   windows committed=%llu fault_aborted=%llu "
                 "hint_aborted=%llu; serial rounds setup=%llu replay=%llu penalty=%llu\n",
                 m.name.c_str(), m.seconds, m.AccessesPerSec(),
                 (unsigned long long)spec.windows_committed,
                 (unsigned long long)spec.windows_fault_aborted,
                 (unsigned long long)spec.windows_hint_aborted,
                 (unsigned long long)spec.setup_rounds, (unsigned long long)spec.replay_rounds,
                 (unsigned long long)spec.penalty_rounds);
  }

  // End-to-end fig2/fig3 grids (the committed-baseline workload).
  numalp::ExperimentGrid fig2;
  fig2.machines = {numalp::Topology::MachineA(), numalp::Topology::MachineB()};
  fig2.workloads = numalp::AffectedSubset();
  fig2.policies = {numalp::PolicyKind::kThp, numalp::PolicyKind::kCarrefour2M};
  fig2.num_seeds = 3;
  fig2.sim = options.sim;
  numalp::ExperimentGrid fig3 = fig2;
  fig3.policies = {numalp::PolicyKind::kThp, numalp::PolicyKind::kCarrefourLp};

  std::vector<Measurement> grids;
  for (const auto& [name, grid] : {std::pair<std::string, numalp::ExperimentGrid>{"fig2", fig2},
                                   {"fig3", fig3}}) {
    const Measurement m = TimeGrid(name, grid, options.jobs);
    grids.push_back(m);
    std::fprintf(stderr, "perf_hotpath: grid %-16s %8.3fs  %11.0f acc/s\n", m.name.c_str(),
                 m.seconds, m.AccessesPerSec());
  }

  std::vector<ShardPoint> shard_scaling;
  if (shard_sweep) {
    shard_scaling = RunShardSweep(machine_b, options.sim);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "perf_hotpath: cannot open %s\n", out_path.c_str());
      return 2;
    }
    WriteJson(out, options.sim, options.jobs, cells, grids, shard_scaling);
  } else {
    WriteJson(std::cout, options.sim, options.jobs, cells, grids, shard_scaling);
  }

  if (min_shard_scaling > 0) {
    // Scaling needs real cores: on a narrow host the forced workers time-slice
    // one CPU and the measurement says nothing about the engine, so the gate
    // records and skips rather than failing (the committed JSON still carries
    // host_concurrency for the reader).
    const unsigned host = std::thread::hardware_concurrency();
    if (host < 4) {
      std::fprintf(stderr,
                   "perf_hotpath: shard-scaling gate skipped (host_concurrency=%u < 4)\n",
                   host);
    } else {
      double speedup4 = 0.0;
      for (const ShardPoint& p : shard_scaling) {
        if (p.shards == 4) {
          speedup4 = p.speedup_vs_serial;
        }
      }
      if (speedup4 < min_shard_scaling) {
        std::fprintf(stderr,
                     "perf_hotpath: SHARD SCALING REGRESSION: shards=4 is %.2fx vs serial, "
                     "gate requires >= %.2fx\n",
                     speedup4, min_shard_scaling);
        return 1;
      }
      std::fprintf(stderr, "perf_hotpath: shard scaling ok: shards=4 is %.2fx (gate %.2fx)\n",
                   speedup4, min_shard_scaling);
    }
  }

  if (!against_path.empty()) {
    std::ifstream in(against_path);
    if (!in) {
      std::fprintf(stderr, "perf_hotpath: cannot read baseline %s\n", against_path.c_str());
      return 2;
    }
    const std::string contents((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    bool failed = false;
    for (const Measurement& m : grids) {
      const double baseline = BaselineGridSeconds(contents, m.name);
      if (baseline <= 0) {
        std::fprintf(stderr, "perf_hotpath: no baseline for grid %s in %s (skipping)\n",
                     m.name.c_str(), against_path.c_str());
        continue;
      }
      if (m.seconds > tolerance * baseline) {
        std::fprintf(stderr,
                     "perf_hotpath: REGRESSION grid %s: %.3fs > %.1fx baseline %.3fs\n",
                     m.name.c_str(), m.seconds, tolerance, baseline);
        failed = true;
      } else {
        std::fprintf(stderr, "perf_hotpath: grid %s ok: %.3fs vs baseline %.3fs (gate %.1fx)\n",
                     m.name.c_str(), m.seconds, baseline, tolerance);
      }
    }
    if (failed) {
      return 1;
    }
  }
  return 0;
}
