// ExperimentRunner regression tests: the parallel grid must be a pure
// function of its declaration — identical RunResults at any jobs value, and
// grid indexing that matches standalone Simulations. The settings table
// every tool parses its flags and environment with is tested here too.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
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
}

// ParseToolArgs on `args` (the binary name is prepended).
report::Options ParseArgs(std::vector<std::string> args) {
  const report::ToolInfo info{"tool", "tool", "test tool"};
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return report::ParseToolArgs(static_cast<int>(argv.size()), argv.data(), info);
}

// The message the settings table rejects `text` for the setting `name` (a
// flag or an environment variable) with, or "" when it accepts it.
std::string Rejection(const std::string& name, const char* text) {
  report::Options options;
  for (const report::Setting& setting : report::UniformSettings(&options)) {
    if ((setting.flag != nullptr && name == setting.flag) ||
        (setting.env != nullptr && name == setting.env)) {
      try {
        setting.value.store(name, text);
      } catch (const std::invalid_argument& error) {
        return error.what();
      }
      return "";
    }
  }
  ADD_FAILURE() << name << " is not in the settings table";
  return "";
}

TEST(SettingsTest, EnvKnobsApplyBeforeFlags) {
  const int default_epochs = SimConfig{}.max_epochs;
  ASSERT_EQ(unsetenv("NUMALP_MAX_EPOCHS"), 0);
  EXPECT_EQ(ParseArgs({}).sim.max_epochs, default_epochs);
  ASSERT_EQ(setenv("NUMALP_MAX_EPOCHS", "7", 1), 0);
  ASSERT_EQ(setenv("NUMALP_ACCESSES_PER_EPOCH", "512", 1), 0);
  const report::Options from_env = ParseArgs({"--seed", "123"});
  EXPECT_EQ(from_env.sim.max_epochs, 7);
  EXPECT_EQ(from_env.sim.accesses_per_thread_per_epoch, 512u);
  EXPECT_EQ(from_env.sim.seed, 123u);
  EXPECT_EQ(ParseArgs({"--epochs", "5"}).sim.max_epochs, 5);
  ASSERT_EQ(unsetenv("NUMALP_MAX_EPOCHS"), 0);
  ASSERT_EQ(unsetenv("NUMALP_ACCESSES_PER_EPOCH"), 0);
  EXPECT_EQ(Rejection("NUMALP_MAX_EPOCHS", "-3"),
            "NUMALP_MAX_EPOCHS: expected an integer in [1, 2147483647], got '-3'");
}

// Malformed integer settings must not quietly change the run: a value that
// does not parse completely, or falls outside the setting's range, is
// rejected naming the flag or variable. NUMALP_SHARDS_FORCE is a boolean, so
// 0 stays "off".
TEST(SettingsTest, IntegerSettingsRejectMalformedValues) {
  for (const auto& [name, bad] :
       {std::pair{"NUMALP_MAX_EPOCHS", "x3"}, std::pair{"NUMALP_MAX_EPOCHS", "4O"},
        std::pair{"NUMALP_MAX_EPOCHS", "0"}, std::pair{"NUMALP_MAX_EPOCHS", "99999999999"},
        std::pair{"NUMALP_ACCESSES_PER_EPOCH", ""}, std::pair{"NUMALP_ACCESSES_PER_EPOCH", "1e3"},
        std::pair{"--seed", "abc"}, std::pair{"--seed", "99999999999999999999"},
        std::pair{"NUMALP_SHARDS", "-4"}, std::pair{"NUMALP_SHARDS", "4 "},
        std::pair{"NUMALP_SHARDS_FORCE", "yes"}, std::pair{"NUMALP_SHARDS_FORCE", "-1"},
        std::pair{"NUMALP_JOBS", "4x"}, std::pair{"NUMALP_JOBS", "abc"},
        std::pair{"NUMALP_JOBS", "0"}, std::pair{"--cell-deadline-ms", "-5"},
        std::pair{"--cell-deadline-ms", "30ms"}, std::pair{"--cell-retries", "one"},
        std::pair{"--cell-retries", "-1"}}) {
    const std::string message = Rejection(name, bad);
    EXPECT_EQ(message.rfind(std::string(name) + ": expected an integer in [", 0), 0u) << message;
    EXPECT_NE(message.find(std::string("got '") + bad + "'"), std::string::npos) << message;
  }
  ASSERT_EQ(setenv("NUMALP_SHARDS_FORCE", "0", 1), 0);
  EXPECT_FALSE(ParseArgs({}).sim.shards_force);
  ASSERT_EQ(setenv("NUMALP_SHARDS_FORCE", "1", 1), 0);
  EXPECT_TRUE(ParseArgs({}).sim.shards_force);
  ASSERT_EQ(unsetenv("NUMALP_SHARDS_FORCE"), 0);
}

// Malformed fault settings must not quietly change the run: an unknown
// profile or a percentage that does not parse completely into [0, 100] is
// rejected, naming the flag; well-formed values, 0 and 100 included, apply.
TEST(SettingsTest, FaultFlagsRejectMalformedValues) {
  EXPECT_EQ(Rejection("--fault-profile", "fargm"),
            "--fault-profile: expected off|frag|pressure|churn, got 'fargm'");
  EXPECT_EQ(ParseArgs({"--fault-profile", "pressure"}).sim.faults.profile,
            FaultProfile::kPressure);
  for (const char* flag : {"--fault-alloc-pct", "--fault-migrate-pct",
                           "--fault-large-migrate-pct", "--fault-pressure-pct"}) {
    for (const char* bad : {"abc", "", "5x", "-1", "100.5", "nan"}) {
      EXPECT_EQ(Rejection(flag, bad), std::string(flag) +
                                          ": expected a percentage in [0, 100], got '" + bad +
                                          "'");
    }
    for (const char* good : {"12.5", "0", "100"}) {
      EXPECT_EQ(Rejection(flag, good), "") << flag << " " << good;
    }
  }
  EXPECT_EQ(ParseArgs({"--fault-alloc-pct", "0"}).sim.faults.alloc_fail_pct, 0.0);
  EXPECT_EQ(ParseArgs({"--fault-alloc-pct", "100"}).sim.faults.alloc_fail_pct, 100.0);
}

// The CLI rejects malformed values from flags and from the environment
// alike: a message naming the flag or variable, then exit 2.
TEST(SettingsDeathTest, ToolArgsRejectMalformedSettings) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* flag : {"--fault-alloc-pct", "--fault-migrate-pct", "--fault-large-migrate-pct",
                           "--fault-pressure-pct"}) {
    EXPECT_EXIT(ParseArgs({flag, "abc"}), ::testing::ExitedWithCode(2),
                std::string(flag) + ": expected a percentage in \\[0, 100\\], got 'abc'");
    EXPECT_EXIT(ParseArgs({flag, "101"}), ::testing::ExitedWithCode(2), flag);
  }
  EXPECT_EXIT(ParseArgs({"--fault-profile", "bogus"}), ::testing::ExitedWithCode(2),
              "--fault-profile: expected off\\|frag\\|pressure\\|churn, got 'bogus'");
  EXPECT_EXIT(ParseArgs({"--format", "json"}), ::testing::ExitedWithCode(2),
              "--format: expected md\\|csv\\|jsonl, got 'json'");
  // Integer flags: each once parsed a prefix, a zero or a negative count.
  for (const auto& [flag, bad] :
       {std::pair{"--epochs", "4O"}, std::pair{"--seed", "abc"}, std::pair{"--shards", "-4"},
        std::pair{"--jobs", "0"}, std::pair{"--accesses", "2k"},
        std::pair{"--cell-deadline-ms", "-1"}, std::pair{"--cell-retries", "one"}}) {
    EXPECT_EXIT(ParseArgs({flag, bad}), ::testing::ExitedWithCode(2),
                std::string(flag) + ": expected an integer in \\[");
  }
  const report::Options zeros = ParseArgs({"--cell-deadline-ms", "0", "--cell-retries", "0"});
  EXPECT_EQ(zeros.cell_deadline_ms, 0);
  EXPECT_EQ(zeros.cell_retries, 0);
  for (const auto& [name, value] :
       {std::pair{"NUMALP_MAX_EPOCHS", "x3"}, std::pair{"NUMALP_ACCESSES_PER_EPOCH", "2k"},
        std::pair{"NUMALP_SHARDS", "-4"}, std::pair{"NUMALP_SHARDS_FORCE", "yes"}}) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    EXPECT_EXIT(ParseArgs({}), ::testing::ExitedWithCode(2),
                std::string(name) + ": expected an integer in \\[.*got '" + value + "'");
    ASSERT_EQ(unsetenv(name), 0);
  }
}

// NUMALP_JOBS once fell back silently (NUMALP_JOBS=4x ran 4 jobs); now it
// is read with the other settings, and the flag overrides it.
TEST(SettingsDeathTest, JobsEnvIsStrictAndTheFlagWins) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"4x", "abc", "0"}) {
    ASSERT_EQ(setenv("NUMALP_JOBS", bad, 1), 0);
    EXPECT_EXIT(ParseArgs({}), ::testing::ExitedWithCode(2),
                std::string("NUMALP_JOBS: expected an integer in \\[.*got '") + bad + "'");
  }
  ASSERT_EQ(setenv("NUMALP_JOBS", "3", 1), 0);
  EXPECT_EQ(ParseArgs({}).jobs, 3);
  EXPECT_EQ(ParseArgs({"--jobs", "2"}).jobs, 2);
  ASSERT_EQ(unsetenv("NUMALP_JOBS"), 0);
}

// A NUMALP_* variable the table does not read (a typo, or a knob that only
// a flag sets now) would otherwise be ignored without a word.
TEST(SettingsDeathTest, UnknownNumalpEnvIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const auto& [name, value] :
       {std::pair{"NUMALP_MAX_EPOCH", "3"}, std::pair{"NUMALP_FAULT_PROFILE", "frag"},
        std::pair{"NUMALP_FAULT_PRESSURE_PCT", "abc"}, std::pair{"NUMALP_SEED", "7"},
        std::pair{"NUMALP_CELL_RETRIES", "0"}}) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    EXPECT_EXIT(ParseArgs({}), ::testing::ExitedWithCode(2),
                std::string(name) + ": not a setting; the environment sets only NUMALP_");
    ASSERT_EQ(unsetenv(name), 0);
  }
}

// A binary's own rows parse as strictly as the shared ones, and so do the
// flags numalp_report parses itself. The value is rejected before --help is
// reached; a lenient parser would print the usage and exit 0 instead.
TEST(SettingsDeathTest, ToolFlagsRejectMalformedValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto run = [](std::vector<std::string> args) {
    args.push_back("--help");
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  };
  std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{NUMALP_RUN, "--ibs-interval", "5x"}, "--ibs-interval: expected an integer in \\["},
      {{NUMALP_RUN, "--ibs-interval", "-1"}, "--ibs-interval: expected an integer in \\["},
      {{NUMALP_RUN, "--ibs-interval", "0"}, "--ibs-interval: expected an integer in \\["},
      {{NUMALP_RUN, "--capture-trace", ""}, "--capture-trace: expected a non-empty value"},
      {{NUMALP_RUN, "--policy", "lp2"}, "--policy: expected linux-4k\\|thp"},
      {{NUMALP_RUN, "--workload", "CG.Z"}, "--workload: unknown workload 'CG.Z'"},
      {{NUMALP_REPORT, "--format", "bogus"}, "--format: expected md\\|csv\\|jsonl, got 'bogus'"},
  };
#ifdef NUMALP_BENCH
  cases.push_back({{NUMALP_BENCH, "trace_replay", "--trace-epochs", "3x"},
                   "--trace-epochs: expected an integer in \\["});
  cases.push_back({{NUMALP_BENCH, "trace_replay", "--trace-epochs", "-1"},
                   "--trace-epochs: expected an integer in \\["});
  // Only trace_replay's row declares the trace settings.
  cases.push_back({{NUMALP_BENCH, "fig1_thp_vs_linux", "--trace-epochs", "3"},
                   "usage: numalp_bench fig1_thp_vs_linux \\[options\\]"});
  cases.push_back({{NUMALP_BENCH, "fig1", "--epochs", "3"},
                   "unknown bench 'fig1'\n.*NAME is one of:\n  fig1_thp_vs_linux "});
#endif
  for (const auto& [args, message] : cases) {
    EXPECT_EXIT(run(args), ::testing::ExitedWithCode(2), message) << args[1] << " " << args[2];
  }
  EXPECT_EXIT(run({NUMALP_RUN, "--ibs-interval", "5", "--policy", "thp"}),
              ::testing::ExitedWithCode(0), "");
}

#ifdef NUMALP_BENCH
// numalp_bench without a NAME runs nothing: it lists the claims table's
// names and exits 2.
TEST(SettingsDeathTest, BenchDriverWithoutNameListsTheBenches) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto run = [] {
    char* argv[] = {const_cast<char*>(NUMALP_BENCH), nullptr};
    ::execv(argv[0], argv);
    std::_Exit(127);
  };
  EXPECT_EXIT(run(), ::testing::ExitedWithCode(2),
              "NAME is one of:\n(  [a-z0-9_]+ +[^\n]+\n){16}$");
}
#endif

}  // namespace
}  // namespace numalp
