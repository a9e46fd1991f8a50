// ExperimentRunner regression tests: the parallel grid must be a pure
// function of its declaration — identical RunResults at any jobs value, grid
// indexing that matches standalone Simulations, and summaries that reproduce
// the historical serial ComparePolicies arithmetic.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/report/sink.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp {
namespace {

SimConfig TinySim() {
  SimConfig sim;
  sim.max_epochs = 6;
  sim.accesses_per_thread_per_epoch = 1024;
  return sim;
}

// Field-by-field bit-exact comparison of the results benches consume.
void ExpectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.total_splits, b.total_splits);
  EXPECT_EQ(a.total_promotions, b.total_promotions);
  EXPECT_EQ(a.total_policy_overhead, b.total_policy_overhead);
  EXPECT_EQ(a.final_thp_coverage, b.final_thp_coverage);
  EXPECT_EQ(a.LarPct(), b.LarPct());
  EXPECT_EQ(a.ImbalancePct(), b.ImbalancePct());
  EXPECT_EQ(a.PamupPct(), b.PamupPct());
  EXPECT_EQ(a.Nhp(), b.Nhp());
  EXPECT_EQ(a.PspPct(), b.PspPct());
  EXPECT_EQ(a.WalkL2MissFrac(), b.WalkL2MissFrac());
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].wall, b.history[i].wall);
    EXPECT_EQ(a.history[i].policy_overhead, b.history[i].policy_overhead);
    EXPECT_EQ(a.history[i].migrations, b.history[i].migrations);
    EXPECT_EQ(a.history[i].splits, b.history[i].splits);
    EXPECT_EQ(a.history[i].promotions, b.history[i].promotions);
    EXPECT_EQ(a.history[i].metrics.lar_pct, b.history[i].metrics.lar_pct);
    EXPECT_EQ(a.history[i].metrics.imbalance_pct, b.history[i].metrics.imbalance_pct);
  }
  ASSERT_EQ(a.core_totals.size(), b.core_totals.size());
  for (std::size_t i = 0; i < a.core_totals.size(); ++i) {
    EXPECT_EQ(a.core_totals[i].accesses, b.core_totals[i].accesses);
    EXPECT_EQ(a.core_totals[i].dram_local, b.core_totals[i].dram_local);
    EXPECT_EQ(a.core_totals[i].dram_remote, b.core_totals[i].dram_remote);
    EXPECT_EQ(a.core_totals[i].fault_cycles, b.core_totals[i].fault_cycles);
  }
}

ExperimentGrid TestGrid() {
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny(), Topology::MachineA()};
  grid.workloads = {BenchmarkId::kCG_D, BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  return grid;
}

TEST(ExperimentRunnerTest, CellSeedMatchesHistoricalDerivation) {
  EXPECT_EQ(CellSeed(42, 0), 42u);
  EXPECT_EQ(CellSeed(42, 1), 42u + 7919u);
  EXPECT_EQ(CellSeed(42, 3), 42u + 3u * 7919u);
}

TEST(ExperimentRunnerTest, JobsDefaultsToAtLeastOne) {
  EXPECT_GE(ExperimentRunner(0).jobs(), 1);
  EXPECT_EQ(ExperimentRunner(5).jobs(), 5);
}

// The acceptance-criteria regression: a grid run with jobs=1 and jobs=8
// produces bit-identical RunResults for every cell.
TEST(ExperimentRunnerTest, GridIsDeterministicAcrossJobCounts) {
  const ExperimentGrid grid = TestGrid();
  const GridResults serial = RunGrid(grid, ExperimentRunner(1));
  const GridResults parallel = RunGrid(grid, ExperimentRunner(8));
  for (int m = 0; m < serial.num_machines(); ++m) {
    for (int w = 0; w < serial.num_workloads(); ++w) {
      for (int s = 0; s < serial.num_seeds(); ++s) {
        ExpectIdentical(serial.Baseline(m, w, s), parallel.Baseline(m, w, s));
        for (int p = 0; p < serial.num_policies(); ++p) {
          ExpectIdentical(serial.At(m, w, p, s), parallel.At(m, w, p, s));
        }
      }
    }
  }
}

// End-to-end determinism across the jobs x shards matrix, at the artifact
// level: the streamed JSONL a bench would write must be byte-identical no
// matter how many grid workers or intra-cell shards ran it (the identity CI
// job diffs exactly this, at full grid scale). The grid adds UA.B — the
// false-sharing cell whose demotion/hinting path is the historically
// fragile one — on top of TestGrid's CG.D and WC.
TEST(ExperimentRunnerTest, GridJsonlIsByteIdenticalAcrossJobsAndShards) {
  const auto render = [](int jobs, int shards) {
    ExperimentGrid grid = TestGrid();
    grid.workloads.push_back(BenchmarkId::kUA_B);
    grid.sim.shards = shards;
    grid.sim.shards_force = true;  // real worker threads even on a busy host
    std::ostringstream out;
    {
      report::GridReport report(std::make_unique<report::JsonlSink>(out), "runner_test", jobs);
      report.Run(grid);
    }
    return out.str();
  };
  const std::string golden = render(/*jobs=*/1, /*shards=*/1);
  EXPECT_FALSE(golden.empty());
  for (const int jobs : {1, 8}) {
    for (const int shards : {1, 4}) {
      if (jobs == 1 && shards == 1) {
        continue;
      }
      EXPECT_EQ(render(jobs, shards), golden) << "jobs " << jobs << " shards " << shards;
    }
  }
}

TEST(ExperimentRunnerTest, RunSpecResultsArePositional) {
  const Topology topo = Topology::Tiny();
  const WorkloadSpec spec = MakeWorkloadSpec(BenchmarkId::kWC, topo);
  std::vector<RunSpec> cells;
  for (PolicyKind kind : {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp}) {
    RunSpec cell;
    cell.topo = topo;
    cell.workload = spec;
    cell.policy = MakePolicyConfig(kind);
    cell.sim = TinySim();
    cells.push_back(cell);
  }
  const std::vector<RunResult> results = ExperimentRunner(4).Run(cells);
  ASSERT_EQ(results.size(), cells.size());
  EXPECT_EQ(results[0].policy, PolicyKind::kLinux4K);
  EXPECT_EQ(results[1].policy, PolicyKind::kThp);
  EXPECT_EQ(results[2].policy, PolicyKind::kCarrefourLp);
}

// Grid cells match standalone Simulations built from the same coordinates.
TEST(ExperimentRunnerTest, GridCellsMatchStandaloneSimulations) {
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kThp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  const GridResults results = RunGrid(grid, ExperimentRunner(4));

  for (int s = 0; s < 2; ++s) {
    SimConfig seeded = grid.sim;
    seeded.seed = CellSeed(grid.sim.seed, s);
    Simulation expected(grid.machines[0], MakeWorkloadSpec(BenchmarkId::kWC, grid.machines[0]),
                        MakePolicyConfig(PolicyKind::kThp), seeded);
    ExpectIdentical(results.At(0, 0, 0, s), expected.Run());
  }
}

// A requested Linux-4K column aliases the baseline cells instead of
// rerunning them (simulations are deterministic, so sharing is exact).
TEST(ExperimentRunnerTest, Linux4KColumnSharesBaseline) {
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  const GridResults results = RunGrid(grid, ExperimentRunner(2));
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(&results.At(0, 0, 0, s), &results.Baseline(0, 0, s));
  }
  const PolicySummary baseline_summary = results.Summarize(0, 0, 0);
  EXPECT_EQ(baseline_summary.kind, PolicyKind::kLinux4K);
  EXPECT_EQ(baseline_summary.mean_improvement_pct, 0.0);
}

// Summaries reproduce the historical serial arithmetic: accumulate in
// ascending seed order, then divide once.
TEST(ExperimentRunnerTest, SummarizeMatchesManualAggregation) {
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kCG_D};
  grid.policies = {PolicyKind::kThp};
  grid.num_seeds = 3;
  grid.sim = TinySim();
  const GridResults results = RunGrid(grid, ExperimentRunner(8));
  const PolicySummary summary = results.Summarize(0, 0, 0);

  double mean = 0.0;
  double lar = 0.0;
  for (int s = 0; s < 3; ++s) {
    mean += ImprovementPct(results.Baseline(0, 0, s), results.At(0, 0, 0, s));
    lar += results.At(0, 0, 0, s).LarPct();
  }
  // The aggregation multiplies by the reciprocal (as the historical serial
  // code did), which is not bitwise `x / 3.0` — assert the exact arithmetic.
  const double inv = 1.0 / 3.0;
  EXPECT_EQ(summary.mean_improvement_pct, mean * inv);
  EXPECT_EQ(summary.lar_pct, lar * inv);
  EXPECT_EQ(summary.representative.total_cycles, results.At(0, 0, 0, 0).total_cycles);
}

// ComparePolicies is a thin wrapper over the grid: same summaries either way.
TEST(ExperimentRunnerTest, ComparePoliciesMatchesGrid) {
  const Topology topo = Topology::Tiny();
  const std::vector<PolicyKind> policies = {PolicyKind::kLinux4K, PolicyKind::kCarrefourLp};
  const SimConfig sim = TinySim();
  const auto summaries = ComparePolicies(topo, BenchmarkId::kWC, policies, sim,
                                         /*num_seeds=*/2, ExperimentRunner(4));

  ExperimentGrid grid;
  grid.machines = {topo};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = policies;
  grid.num_seeds = 2;
  grid.sim = sim;
  const auto expected = RunGrid(grid, ExperimentRunner(1)).SummarizeAll(0, 0);
  ASSERT_EQ(summaries.size(), expected.size());
  for (std::size_t p = 0; p < summaries.size(); ++p) {
    EXPECT_EQ(summaries[p].kind, expected[p].kind);
    EXPECT_EQ(summaries[p].mean_improvement_pct, expected[p].mean_improvement_pct);
    EXPECT_EQ(summaries[p].lar_pct, expected[p].lar_pct);
    EXPECT_EQ(summaries[p].overhead_frac, expected[p].overhead_frac);
  }
}

// The message WithEnvOverrides rejects the environment with, or "" when it
// accepts it.
std::string EnvRejection(const SimConfig& sim) {
  try {
    WithEnvOverrides(sim);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ExperimentRunnerTest, EnvOverridesParsePositiveValues) {
  SimConfig sim;
  const int default_epochs = sim.max_epochs;
  ASSERT_EQ(unsetenv("NUMALP_MAX_EPOCHS"), 0);
  EXPECT_EQ(WithEnvOverrides(sim).max_epochs, default_epochs);
  ASSERT_EQ(setenv("NUMALP_MAX_EPOCHS", "7", 1), 0);
  EXPECT_EQ(WithEnvOverrides(sim).max_epochs, 7);
  ASSERT_EQ(setenv("NUMALP_MAX_EPOCHS", "-3", 1), 0);
  EXPECT_EQ(EnvRejection(sim),
            "NUMALP_MAX_EPOCHS: expected an integer in [1, 2147483647], got '-3'");
  ASSERT_EQ(unsetenv("NUMALP_MAX_EPOCHS"), 0);
}

// Malformed integer settings must not quietly change the run: a value that
// does not parse completely, or falls outside the knob's range, is rejected
// naming the variable. NUMALP_SHARDS_FORCE is a boolean, so 0 stays "off".
TEST(ExperimentRunnerTest, IntegerEnvOverridesRejectMalformedValues) {
  SimConfig sim;
  for (const auto& [name, bad] :
       {std::pair{"NUMALP_MAX_EPOCHS", "x3"}, std::pair{"NUMALP_MAX_EPOCHS", "4O"},
        std::pair{"NUMALP_MAX_EPOCHS", "0"}, std::pair{"NUMALP_MAX_EPOCHS", "99999999999"},
        std::pair{"NUMALP_ACCESSES_PER_EPOCH", ""}, std::pair{"NUMALP_ACCESSES_PER_EPOCH", "1e3"},
        std::pair{"NUMALP_SEED", "abc"}, std::pair{"NUMALP_SEED", "99999999999999999999"},
        std::pair{"NUMALP_SHARDS", "-4"}, std::pair{"NUMALP_SHARDS", "4 "},
        std::pair{"NUMALP_SHARDS_FORCE", "yes"}, std::pair{"NUMALP_SHARDS_FORCE", "-1"}}) {
    ASSERT_EQ(setenv(name, bad, 1), 0);
    const std::string message = EnvRejection(sim);
    EXPECT_EQ(message.rfind(std::string(name) + ": expected an integer in [", 0), 0u) << message;
    EXPECT_NE(message.find(std::string("got '") + bad + "'"), std::string::npos) << message;
    ASSERT_EQ(unsetenv(name), 0);
  }
  ASSERT_EQ(setenv("NUMALP_SHARDS_FORCE", "0", 1), 0);
  EXPECT_FALSE(WithEnvOverrides(sim).shards_force);
  ASSERT_EQ(setenv("NUMALP_SHARDS_FORCE", "1", 1), 0);
  EXPECT_TRUE(WithEnvOverrides(sim).shards_force);
  ASSERT_EQ(unsetenv("NUMALP_SHARDS_FORCE"), 0);
  ASSERT_EQ(setenv("NUMALP_SEED", "123", 1), 0);
  ASSERT_EQ(setenv("NUMALP_ACCESSES_PER_EPOCH", "512", 1), 0);
  const SimConfig overridden = WithEnvOverrides(sim);
  EXPECT_EQ(overridden.seed, 123u);
  EXPECT_EQ(overridden.accesses_per_thread_per_epoch, 512u);
  ASSERT_EQ(unsetenv("NUMALP_SEED"), 0);
  ASSERT_EQ(unsetenv("NUMALP_ACCESSES_PER_EPOCH"), 0);
}

// Malformed fault settings must not quietly change the run: an unknown
// profile or a percentage that does not parse completely into [0, 100] is
// rejected, naming the variable; well-formed values still apply.
TEST(ExperimentRunnerTest, FaultEnvOverridesRejectMalformedValues) {
  SimConfig sim;
  ASSERT_EQ(setenv("NUMALP_FAULT_PROFILE", "fargm", 1), 0);
  EXPECT_EQ(EnvRejection(sim),
            "NUMALP_FAULT_PROFILE: expected off | frag | pressure | churn, got 'fargm'");
  ASSERT_EQ(setenv("NUMALP_FAULT_PROFILE", "pressure", 1), 0);
  EXPECT_EQ(WithEnvOverrides(sim).faults.profile, FaultProfile::kPressure);
  ASSERT_EQ(unsetenv("NUMALP_FAULT_PROFILE"), 0);
  for (const char* name : {"NUMALP_FAULT_ALLOC_PCT", "NUMALP_FAULT_MIGRATE_PCT",
                           "NUMALP_FAULT_LARGE_MIGRATE_PCT", "NUMALP_FAULT_PRESSURE_PCT"}) {
    for (const char* bad : {"abc", "", "5x", "-1", "100.5", "nan"}) {
      ASSERT_EQ(setenv(name, bad, 1), 0);
      EXPECT_EQ(EnvRejection(sim), std::string(name) +
                                       ": expected a percentage in [0, 100], got '" + bad + "'");
    }
    ASSERT_EQ(setenv(name, "12.5", 1), 0);
    EXPECT_EQ(EnvRejection(sim), "") << name;
    ASSERT_EQ(unsetenv(name), 0);
  }
  ASSERT_EQ(setenv("NUMALP_FAULT_ALLOC_PCT", "0", 1), 0);
  EXPECT_EQ(WithEnvOverrides(sim).faults.alloc_fail_pct, 0.0);
  ASSERT_EQ(setenv("NUMALP_FAULT_ALLOC_PCT", "100", 1), 0);
  EXPECT_EQ(WithEnvOverrides(sim).faults.alloc_fail_pct, 100.0);
  ASSERT_EQ(unsetenv("NUMALP_FAULT_ALLOC_PCT"), 0);
}

// The CLI rejects the same malformed values, from flags and from the
// environment alike: a message naming the flag or variable, then exit 2.
TEST(ExperimentRunnerDeathTest, ToolArgsRejectMalformedSettings) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const report::ToolInfo info{"tool", "tool", "test tool"};
  const auto parse = [&](std::vector<std::string> args) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    return report::ParseToolArgs(static_cast<int>(argv.size()), argv.data(), info);
  };
  for (const char* flag : {"--fault-alloc-pct", "--fault-migrate-pct", "--fault-large-migrate-pct",
                           "--fault-pressure-pct"}) {
    EXPECT_EXIT(parse({flag, "abc"}), ::testing::ExitedWithCode(2),
                std::string(flag) + ": expected a percentage in \\[0, 100\\], got 'abc'");
    EXPECT_EXIT(parse({flag, "101"}), ::testing::ExitedWithCode(2), flag);
  }
  EXPECT_EXIT(parse({"--fault-profile", "bogus"}), ::testing::ExitedWithCode(2),
              "--fault-profile");
  // Integer flags: each once parsed a prefix, a zero or a negative count.
  for (const auto& [flag, bad] :
       {std::pair{"--epochs", "4O"}, std::pair{"--seed", "abc"}, std::pair{"--shards", "-4"},
        std::pair{"--jobs", "0"}, std::pair{"--accesses", "2k"},
        std::pair{"--cell-deadline-ms", "-1"}, std::pair{"--cell-retries", "one"}}) {
    EXPECT_EXIT(parse({flag, bad}), ::testing::ExitedWithCode(2),
                std::string(flag) + ": expected an integer in \\[");
  }
  const report::Options zeros = parse({"--cell-deadline-ms", "0", "--cell-retries", "0"});
  EXPECT_EQ(zeros.cell_deadline_ms, 0);
  EXPECT_EQ(zeros.cell_retries, 0);
  for (const auto& [name, value] : {std::pair{"NUMALP_FAULT_PROFILE", "fargm"},
                                    std::pair{"NUMALP_MAX_EPOCHS", "x3"},
                                    std::pair{"NUMALP_FAULT_PRESSURE_PCT", "abc"}}) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2), name);
    ASSERT_EQ(unsetenv(name), 0);
  }
}

// The runner's env knobs once fell back silently: NUMALP_JOBS=4x ran 4
// jobs, NUMALP_JOBS=abc the hardware concurrency, NUMALP_CELL_DEADLINE_MS=-5
// turned the watchdog off and NUMALP_CELL_RETRIES=one kept 1 retry. Now they
// are read with the other settings: exit 2, naming the variable.
TEST(ExperimentRunnerDeathTest, ToolArgsRejectMalformedRunnerEnv) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const report::ToolInfo info{"tool", "tool", "test tool"};
  char tool[] = "tool";
  char* argv[] = {tool};
  const auto parse = [&]() { return report::ParseToolArgs(1, argv, info); };
  for (const auto& [name, bad] :
       {std::pair{"NUMALP_JOBS", "4x"}, std::pair{"NUMALP_JOBS", "abc"},
        std::pair{"NUMALP_JOBS", "0"}, std::pair{"NUMALP_CELL_DEADLINE_MS", "-5"},
        std::pair{"NUMALP_CELL_DEADLINE_MS", "30ms"}, std::pair{"NUMALP_CELL_RETRIES", "one"},
        std::pair{"NUMALP_CELL_RETRIES", "-1"}}) {
    ASSERT_EQ(setenv(name, bad, 1), 0);
    EXPECT_EXIT(parse(), ::testing::ExitedWithCode(2),
                std::string(name) + ": expected an integer in \\[.*got '" + bad + "'");
    ASSERT_EQ(unsetenv(name), 0);
  }
  ASSERT_EQ(setenv("NUMALP_JOBS", "3", 1), 0);
  ASSERT_EQ(setenv("NUMALP_CELL_DEADLINE_MS", "0", 1), 0);
  ASSERT_EQ(setenv("NUMALP_CELL_RETRIES", "0", 1), 0);
  const report::Options options = parse();
  EXPECT_EQ(options.jobs, 3);
  EXPECT_EQ(options.cell_deadline_ms, 0);
  EXPECT_EQ(options.cell_retries, 0);
  // Flags override the environment.
  char jobs_flag[] = "--jobs";
  char jobs_value[] = "2";
  char* with_flag[] = {tool, jobs_flag, jobs_value};
  EXPECT_EQ(report::ParseToolArgs(3, with_flag, info).jobs, 2);
  ASSERT_EQ(unsetenv("NUMALP_JOBS"), 0);
  ASSERT_EQ(unsetenv("NUMALP_CELL_DEADLINE_MS"), 0);
  ASSERT_EQ(unsetenv("NUMALP_CELL_RETRIES"), 0);
}

}  // namespace
}  // namespace numalp
