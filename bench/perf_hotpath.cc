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

// One run of the profile-metadata sweep: the same cell under exact and
// sketch profiling, recording the tracked-state high-water marks RunResult
// carries (deliberately outside the JSONL surface) next to the placement
// decisions, so the JSON shows the ISSUE's claim directly: same decisions,
// an order of magnitude less profiling state on the sparse cell.
struct ProfilePoint {
  std::string cell;
  std::string mode;  // "exact" | "sketch"
  std::uint64_t peak_entries = 0;
  std::uint64_t state_bytes = 0;
  std::uint64_t admission_misses = 0;
  std::uint64_t migrations = 0;
  std::uint64_t splits = 0;
  std::uint64_t promotions = 0;
  numalp::Cycles measured_cycles = 0;
};

ProfilePoint RunProfileCell(const char* cell, const numalp::Topology& topo,
                            numalp::BenchmarkId bench, numalp::PolicyKind kind,
                            const numalp::SimConfig& sim) {
  const numalp::RunResult result = numalp::RunBenchmark(topo, bench, kind, sim);
  ProfilePoint p;
  p.cell = cell;
  p.mode = std::string(numalp::NameOf(sim.profile_mode));
  p.peak_entries = result.profile_peak_entries;
  p.state_bytes = result.profile_state_bytes;
  p.admission_misses = result.profile_admission_misses;
  p.migrations = result.total_migrations;
  p.splits = result.total_splits;
  p.promotions = result.total_promotions;
  p.measured_cycles = result.measured_cycles;
  std::fprintf(stderr,
               "perf_hotpath: profile %-24s %-6s peak_entries=%llu state_bytes=%llu "
               "misses=%llu migrations=%llu\n",
               p.cell.c_str(), p.mode.c_str(), (unsigned long long)p.peak_entries,
               (unsigned long long)p.state_bytes, (unsigned long long)p.admission_misses,
               (unsigned long long)p.migrations);
  return p;
}

// Exact-vs-sketch state sweep: the sparse-footprint stressor (where bounded
// state is the whole point) plus the flagship CG.D cell at the bit-identical
// default threshold. The sweep densifies sampling (interval 32 on both
// sides — state scales with distinct sampled pages, and the comparison must
// be like against like) and gives sketch mode a fixed small budget: a
// 32Ki-slot filter (64KB) and a 4x32Ki count-sketch (512KB) — sized so the
// sketch's per-row aliasing load stays below one count per cell for the
// cell's ~35K unadmitted samples (a saturated count-sketch over-admits
// everything and the bound evaporates) — versus exact mode's one FlatMap
// entry per sampled 4KB page of a threads x 32MiB footprint. Threshold 4 on
// the sparse cell keeps once-or-twice-sampled
// cold pages out of the exact aggregate; every such page is strictly local
// and below Carrefour's per-page floor, so decisions cannot move (the
// runner_test grid pins the threshold-1 identity bit-for-bit).
std::vector<ProfilePoint> RunProfileSweep(const numalp::Topology& topo,
                                          numalp::SimConfig sim) {
  sim.ibs_interval = 32;
  std::vector<ProfilePoint> points;
  numalp::SimConfig sketch = sim;
  sketch.profile_mode = numalp::ProfileMode::kSketch;
  sketch.profile_sketch.admit_threshold = 4;
  sketch.profile_sketch.filter_capacity = 32768;
  sketch.profile_sketch.sketch_width = 32768;
  points.push_back(RunProfileCell("sparse-footprint/carrefour-2m", topo,
                                  numalp::BenchmarkId::kSparseFootprint,
                                  numalp::PolicyKind::kCarrefour2M, sim));
  points.push_back(RunProfileCell("sparse-footprint/carrefour-2m", topo,
                                  numalp::BenchmarkId::kSparseFootprint,
                                  numalp::PolicyKind::kCarrefour2M, sketch));
  numalp::SimConfig sketch_default = sim;
  sketch_default.profile_mode = numalp::ProfileMode::kSketch;
  points.push_back(RunProfileCell("CG.D/carrefour-lp", topo, numalp::BenchmarkId::kCG_D,
                                  numalp::PolicyKind::kCarrefourLp, sim));
  points.push_back(RunProfileCell("CG.D/carrefour-lp", topo, numalp::BenchmarkId::kCG_D,
                                  numalp::PolicyKind::kCarrefourLp, sketch_default));
  return points;
}

void WriteJson(std::ostream& out, const numalp::SimConfig& sim, int jobs,
               const std::vector<Measurement>& cells,
               const std::vector<Measurement>& grids,
               const std::vector<ShardPoint>& shard_scaling,
               const std::vector<ProfilePoint>& profile_sweep) {
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
  if (!profile_sweep.empty()) {
    out << ",\n  \"profile_sweep\": [\n";
    for (std::size_t i = 0; i < profile_sweep.size(); ++i) {
      const ProfilePoint& p = profile_sweep[i];
      out << "    {\"cell\":\"" << p.cell << "\",\"mode\":\"" << p.mode
          << "\",\"peak_entries\":" << p.peak_entries << ",\"state_bytes\":" << p.state_bytes
          << ",\"admission_misses\":" << p.admission_misses
          << ",\"migrations\":" << p.migrations << ",\"splits\":" << p.splits
          << ",\"promotions\":" << p.promotions
          << ",\"measured_cycles\":" << p.measured_cycles << "}"
          << (i + 1 < profile_sweep.size() ? ",\n" : "\n");
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
  bool profile_sweep_on = false;
  double min_profile_reduction = 0.0;
  const numalp::report::ToolInfo info = {
      "perf_hotpath", "perf",
      "simulator wall-clock: accesses/sec per policy and fig2+fig3 grid seconds",
      "  --out FILE             write the measurements as BENCH_perf.json-style JSON\n"
      "  --against FILE         fail when a grid exceeds tolerance x FILE's seconds\n"
      "  --tolerance X          gate factor for --against (default 2.0)\n"
      "  --shard-sweep          time the CG.D/Carrefour-LP cell at 1/2/4/8 forced\n"
      "                         shards (results are identical; only wall clock moves)\n"
      "  --min-shard-scaling X  fail when shards=4 speeds up less than Xx over\n"
      "                         shards=1 (skipped on hosts with < 4 cores)\n"
      "  --profile-sweep        record exact-vs-sketch profiling state high-water\n"
      "                         marks (sparse-footprint + CG.D cells)\n"
      "  --min-profile-reduction X\n"
      "                         fail when sketch mode tracks less than Xx less\n"
      "                         state than exact on the sparse cell, or when any\n"
      "                         swept cell's placement decisions differ\n"};
  const numalp::report::Options options = numalp::report::ParseToolArgs(
      argc, argv, info,
      {{"--out", true, [&](const char* v) { out_path = v; return true; }},
       {"--against", true, [&](const char* v) { against_path = v; return true; }},
       {"--tolerance", true,
        [&](const char* v) { tolerance = std::atof(v); return tolerance > 0; }},
       {"--shard-sweep", false, [&](const char*) { shard_sweep = true; return true; }},
       {"--min-shard-scaling", true,
        [&](const char* v) {
          shard_sweep = true;
          min_shard_scaling = std::atof(v);
          return min_shard_scaling > 0;
        }},
       {"--profile-sweep", false, [&](const char*) { profile_sweep_on = true; return true; }},
       {"--min-profile-reduction", true, [&](const char* v) {
          profile_sweep_on = true;
          min_profile_reduction = std::atof(v);
          return min_profile_reduction > 0;
        }}});

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

  std::vector<ProfilePoint> profile_sweep;
  if (profile_sweep_on) {
    profile_sweep = RunProfileSweep(machine_b, options.sim);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "perf_hotpath: cannot open %s\n", out_path.c_str());
      return 2;
    }
    WriteJson(out, options.sim, options.jobs, cells, grids, shard_scaling, profile_sweep);
  } else {
    WriteJson(std::cout, options.sim, options.jobs, cells, grids, shard_scaling,
              profile_sweep);
  }

  if (min_profile_reduction > 0) {
    // The sweep emits exact/sketch pairs per cell; the gate demands identical
    // decisions everywhere and the state reduction on the sparse cell. Both
    // sides are deterministic simulations, so this is a hard equality gate,
    // not a tolerance band.
    bool failed = false;
    double sparse_reduction = 0.0;
    for (std::size_t i = 0; i + 1 < profile_sweep.size(); i += 2) {
      const ProfilePoint& exact = profile_sweep[i];
      const ProfilePoint& sk = profile_sweep[i + 1];
      if (exact.migrations != sk.migrations || exact.splits != sk.splits ||
          exact.promotions != sk.promotions || exact.measured_cycles != sk.measured_cycles) {
        std::fprintf(stderr,
                     "perf_hotpath: PROFILE DECISION DIVERGENCE on %s: exact "
                     "(mig=%llu spl=%llu pro=%llu cyc=%llu) vs sketch "
                     "(mig=%llu spl=%llu pro=%llu cyc=%llu)\n",
                     exact.cell.c_str(), (unsigned long long)exact.migrations,
                     (unsigned long long)exact.splits, (unsigned long long)exact.promotions,
                     (unsigned long long)exact.measured_cycles,
                     (unsigned long long)sk.migrations, (unsigned long long)sk.splits,
                     (unsigned long long)sk.promotions,
                     (unsigned long long)sk.measured_cycles);
        failed = true;
      }
      if (exact.cell.find("sparse") != std::string::npos && sk.state_bytes > 0) {
        sparse_reduction =
            static_cast<double>(exact.state_bytes) / static_cast<double>(sk.state_bytes);
      }
    }
    if (sparse_reduction < min_profile_reduction) {
      std::fprintf(stderr,
                   "perf_hotpath: PROFILE STATE REGRESSION: sparse cell reduction %.2fx, "
                   "gate requires >= %.2fx\n",
                   sparse_reduction, min_profile_reduction);
      failed = true;
    } else {
      std::fprintf(stderr, "perf_hotpath: profile state ok: sparse reduction %.2fx (gate %.2fx)\n",
                   sparse_reduction, min_profile_reduction);
    }
    if (failed) {
      return 1;
    }
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
