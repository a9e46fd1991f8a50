// ExperimentRunner regression tests: the parallel grid must be a pure
// function of its declaration — identical RunResults at any jobs value, and
// grid indexing that matches standalone Simulations. The settings table
// every tool parses its flags with is tested here too.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/report/sink.h"
#include "src/topo/topology.h"
#include "src/trace/tracegen.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"
#include "tests/oracles/identity.h"

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
    std::ostringstream out;
    {
      report::GridReport report(std::make_unique<report::JsonlSink>(out), "runner_test", jobs);
      report.Run(report::Sweep().AddGrid(grid));
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

// A ckpt-churn trace for `topo` cut to 60% of its length, at `path`: its
// header reads, and replaying it fails partway through with a truncated
// chunk.
void WriteTruncatedTrace(const Topology& topo, const std::string& path) {
  trace::TracegenOptions gen;
  gen.profile = "ckpt-churn";
  gen.topo = topo;
  gen.epochs = 4;
  gen.accesses_per_thread = 512;
  trace::GenerateTrace(gen, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) * 6 / 10);
}

// Cell isolation in the one cell loop: a cell that throws is recorded at its
// own index as a "failed:" stub carrying its coordinates, its neighbours run
// exactly as they do alone, and the observer still sees every index in
// order — inline at one worker and on the pool at three.
TEST(ExperimentRunnerTest, FailedCellIsIsolatedAtEveryJobCount) {
  const Topology topo = Topology::Tiny();
  const std::string path =
      (std::filesystem::temp_directory_path() / "numalp_runner_test_isolated.bin").string();
  WriteTruncatedTrace(topo, path);
  RunSpec ok;
  ok.topo = topo;
  ok.workload = MakeWorkloadSpec(BenchmarkId::kWC, topo);
  ok.policy = MakePolicyConfig(PolicyKind::kThp);
  ok.sim = TinySim();
  RunSpec failing = ok;
  failing.workload = MakeTraceWorkloadSpec(path);
  failing.sim.accesses_per_thread_per_epoch = 512;
  RunSpec other = ok;
  other.policy = MakePolicyConfig(PolicyKind::kCarrefourLp);
  const std::vector<RunSpec> cells = {ok, failing, other};
  std::vector<RunResult> solo;
  for (const RunSpec& cell : {ok, other}) {
    Simulation simulation(cell.topo, cell.workload, cell.policy, cell.sim);
    solo.push_back(simulation.Run());
  }

  for (const int jobs : {1, 3}) {
    ExperimentRunner runner(jobs);
    std::vector<std::size_t> seen;
    runner.set_observer(
        [&seen](std::size_t index, const RunSpec&, const RunResult&) { seen.push_back(index); });
    const std::vector<RunResult> results = runner.Run(cells);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[1].status.rfind("failed: trace: truncated chunk", 0), 0u)
        << "jobs " << jobs << ": " << results[1].status;
    EXPECT_EQ(results[1].workload, failing.workload.name);
    EXPECT_EQ(results[1].machine, topo.name());
    EXPECT_EQ(results[1].policy, PolicyKind::kThp);
    EXPECT_EQ(results[0].status, "ok");
    EXPECT_EQ(results[2].status, "ok");
    EXPECT_EQ(FirstRunDifference(results[0], solo[0]), "") << "jobs " << jobs;
    EXPECT_EQ(FirstRunDifference(results[2], solo[1]), "") << "jobs " << jobs;
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2})) << "jobs " << jobs;
  }
  std::filesystem::remove(path);
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

// The message the settings table rejects `text` for the flag `flag` with, or
// "" when it accepts it.
std::string Rejection(const std::string& flag, const char* text) {
  report::Options options;
  for (const report::Setting& setting : report::UniformSettings(&options)) {
    if (flag == setting.flag) {
      try {
        setting.value.store(flag, text);
      } catch (const std::invalid_argument& error) {
        return error.what();
      }
      return "";
    }
  }
  ADD_FAILURE() << flag << " is not in the settings table";
  return "";
}

// Malformed integer settings must not quietly change the run: a value that
// does not parse completely, or falls outside the setting's range, is
// rejected naming the flag.
TEST(SettingsTest, IntegerSettingsRejectMalformedValues) {
  for (const auto& [flag, bad] :
       {std::pair{"--epochs", "x3"}, std::pair{"--epochs", "4O"}, std::pair{"--epochs", "0"},
        std::pair{"--epochs", "99999999999"}, std::pair{"--accesses", ""},
        std::pair{"--accesses", "1e3"}, std::pair{"--seed", "abc"},
        std::pair{"--seed", "99999999999999999999"}, std::pair{"--shards", "-4"},
        std::pair{"--shards", "4 "}, std::pair{"--jobs", "4x"}, std::pair{"--jobs", "abc"},
        std::pair{"--jobs", "0"}}) {
    const std::string message = Rejection(flag, bad);
    EXPECT_EQ(message.rfind(std::string(flag) + ": expected an integer in [", 0), 0u) << message;
    EXPECT_NE(message.find(std::string("got '") + bad + "'"), std::string::npos) << message;
  }
  EXPECT_EQ(Rejection("--epochs", "-3"),
            "--epochs: expected an integer in [1, 2147483647], got '-3'");
}

// A malformed fault setting must not quietly change the run: an unknown
// profile is rejected, naming the flag; a known one applies.
TEST(SettingsTest, FaultFlagsRejectMalformedValues) {
  EXPECT_EQ(Rejection("--fault-profile", "fargm"),
            "--fault-profile: expected off|frag|pressure|churn, got 'fargm'");
  EXPECT_EQ(ParseArgs({"--fault-profile", "pressure"}).sim.faults.profile,
            FaultProfile::kPressure);
}

// The CLI rejects malformed values with a message naming the flag, then
// exit 2.
TEST(SettingsDeathTest, ToolArgsRejectMalformedSettings) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(ParseArgs({"--fault-profile", "bogus"}), ::testing::ExitedWithCode(2),
              "--fault-profile: expected off\\|frag\\|pressure\\|churn, got 'bogus'");
  EXPECT_EXIT(ParseArgs({"--format", "json"}), ::testing::ExitedWithCode(2),
              "--format: expected md\\|csv\\|jsonl, got 'json'");
  // Integer flags: each once parsed a prefix, a zero or a negative count.
  for (const auto& [flag, bad] :
       {std::pair{"--epochs", "4O"}, std::pair{"--epochs", "x3"}, std::pair{"--seed", "abc"},
        std::pair{"--shards", "-4"}, std::pair{"--jobs", "0"}, std::pair{"--jobs", "4x"},
        std::pair{"--jobs", "abc"}, std::pair{"--accesses", "2k"}}) {
    EXPECT_EXIT(ParseArgs({flag, bad}), ::testing::ExitedWithCode(2),
                std::string(flag) + ": expected an integer in \\[.*got '" + bad + "'");
  }
}

// An unknown flag is named before the usage, so a deleted flag in a script
// says which one it is; the cell watchdog, the retry budget and the four
// fault-rate overrides are such flags.
TEST(SettingsDeathTest, UnknownFlagNamesItself) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* flag :
       {"--cell-deadline-ms", "--cell-retries", "--fault-alloc-pct", "--fault-migrate-pct",
        "--fault-large-migrate-pct", "--fault-pressure-pct"}) {
    EXPECT_EXIT(ParseArgs({flag, "0"}), ::testing::ExitedWithCode(2),
                std::string("tool: unknown flag '") + flag +
                    "'\ntool [^\n]*\n\nusage: tool \\[options\\]");
  }
  EXPECT_EXIT(ParseArgs({"--epochs"}), ::testing::ExitedWithCode(2),
              "tool: --epochs: missing value\n");
}

// The environment sets nothing. A NUMALP_* variable (a former knob, a typo,
// or a knob that only a flag sets now) would otherwise be ignored without a
// word, so it is refused, naming the flag that replaced a former knob.
TEST(SettingsDeathTest, UnknownNumalpEnvIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const auto& [name, value, hint] :
       {std::tuple{"NUMALP_JOBS", "8", "use --jobs"},
        std::tuple{"NUMALP_MAX_EPOCHS", "3", "use --epochs"},
        std::tuple{"NUMALP_ACCESSES_PER_EPOCH", "512", "use --accesses"},
        std::tuple{"NUMALP_SHARDS", "4", "use --shards"},
        std::tuple{"NUMALP_SHARDS_FORCE", "1", "use --shards"},
        std::tuple{"NUMALP_MAX_EPOCH", "3", "settings are flags"},
        std::tuple{"NUMALP_FAULT_PROFILE", "frag", "settings are flags"},
        std::tuple{"NUMALP_FAULT_PRESSURE_PCT", "abc", "settings are flags"},
        std::tuple{"NUMALP_SEED", "7", "settings are flags"},
        std::tuple{"NUMALP_CELL_RETRIES", "0", "settings are flags"}}) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    EXPECT_EXIT(ParseArgs({"--epochs", "3"}), ::testing::ExitedWithCode(2),
                std::string("tool: ") + name + ": the environment sets nothing; " + hint);
    ASSERT_EQ(unsetenv(name), 0);
  }
}

// Replaces the process with the binary args[0] run on args plus --help.
void ExecWithHelp(std::vector<std::string> args) {
  args.push_back("--help");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  std::_Exit(127);
}

// The binaries refuse the former knobs before anything else, --help included.
TEST(SettingsDeathTest, ToolsRefuseTheFormerEnvKnobs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const auto& [name, flag] :
       {std::pair{"NUMALP_JOBS", "--jobs"}, std::pair{"NUMALP_MAX_EPOCHS", "--epochs"},
        std::pair{"NUMALP_ACCESSES_PER_EPOCH", "--accesses"},
        std::pair{"NUMALP_SHARDS", "--shards"}, std::pair{"NUMALP_SHARDS_FORCE", "--shards"}}) {
    ASSERT_EQ(setenv(name, "1", 1), 0);
    EXPECT_EXIT(ExecWithHelp({NUMALP_RUN}), ::testing::ExitedWithCode(2),
                std::string("numalp_run: ") + name + ": the environment sets nothing; use " + flag);
    EXPECT_EXIT(ExecWithHelp({NUMALP_BENCH, "table3_numa_metrics"}), ::testing::ExitedWithCode(2),
                std::string("table3_numa_metrics: ") + name +
                    ": the environment sets nothing; use " + flag);
    ASSERT_EQ(unsetenv(name), 0);
  }
}

// A binary's own rows parse as strictly as the shared ones, and so do the
// flags numalp_report parses itself. The value is rejected before --help is
// reached; a lenient parser would print the usage and exit 0 instead.
TEST(SettingsDeathTest, ToolFlagsRejectMalformedValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{NUMALP_RUN, "--ibs-interval", "5x"}, "--ibs-interval: expected an integer in \\["},
      {{NUMALP_RUN, "--ibs-interval", "-1"}, "--ibs-interval: expected an integer in \\["},
      {{NUMALP_RUN, "--ibs-interval", "0"}, "--ibs-interval: expected an integer in \\["},
      {{NUMALP_RUN, "--capture-trace", ""}, "--capture-trace: expected a non-empty value"},
      {{NUMALP_RUN, "--policy", "lp2"}, "--policy: expected linux-4k\\|thp"},
      {{NUMALP_RUN, "--workload", "CG.Z"}, "--workload: unknown workload 'CG.Z'"},
      {{NUMALP_REPORT, "--format", "bogus"}, "--format: expected md\\|csv\\|jsonl, got 'bogus'"},
      {{NUMALP_REPORT, "--sumary", "x"}, "numalp_report: unknown flag '--sumary'\n"},
  };
  cases.push_back({{NUMALP_BENCH, "trace_replay", "--trace-epochs", "3x"},
                   "--trace-epochs: expected an integer in \\["});
  cases.push_back({{NUMALP_BENCH, "trace_replay", "--trace-epochs", "-1"},
                   "--trace-epochs: expected an integer in \\["});
  // Only trace_replay's row declares the trace settings.
  cases.push_back({{NUMALP_BENCH, "fig1_thp_vs_linux", "--trace-epochs", "3"},
                   "usage: numalp_bench fig1_thp_vs_linux \\[options\\]"});
  cases.push_back({{NUMALP_BENCH, "fig1", "--epochs", "3"},
                   "unknown bench 'fig1'\n.*NAME is one of:\n  fig1_thp_vs_linux "});
  for (const auto& [args, message] : cases) {
    EXPECT_EXIT(ExecWithHelp(args), ::testing::ExitedWithCode(2), message)
        << args[1] << " " << args[2];
  }
  EXPECT_EXIT(ExecWithHelp({NUMALP_RUN, "--ibs-interval", "5", "--policy", "thp"}),
              ::testing::ExitedWithCode(0), "");
}

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

// trace_replay resolves its default --trace-dir after parsing, and only when
// the flag is absent: --help and an explicit --trace-dir work whatever TMPDIR
// holds, and a default that cannot be resolved exits 2 naming the flag
// (each case once aborted on an uncaught filesystem_error). A --trace-dir
// that cannot be created exits 2 like every other unusable setting.
TEST(SettingsDeathTest, TraceDirDefaultIsResolvedAfterParsing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  const std::string trace_dir = (tmp / "numalp_runner_test_traces").string();
  const std::string not_a_dir = (tmp / "numalp_runner_test_not_a_dir").string();
  std::FILE* file = std::fopen(not_a_dir.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  const auto run = [](std::vector<std::string> args) {
    ::setenv("TMPDIR", "/nonexistent_numalp_tmpdir", 1);
    if (std::freopen("/dev/null", "w", stdout) == nullptr) {
      std::_Exit(127);
    }
    args.insert(args.begin(), {NUMALP_BENCH, "trace_replay"});
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  };
  const std::vector<std::string> tiny = {"--trace-epochs", "1", "--epochs", "1",
                                         "--accesses", "64", "--jobs", "2"};
  std::vector<std::string> explicit_dir = tiny;
  explicit_dir.insert(explicit_dir.end(), {"--trace-dir", trace_dir});
  EXPECT_EXIT(run({"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(run(explicit_dir), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(run(tiny), ::testing::ExitedWithCode(2),
              "trace_replay: no system temp dir for the default --trace-dir");
  std::vector<std::string> uncreatable = tiny;
  uncreatable.insert(uncreatable.end(), {"--trace-dir", not_a_dir + "/sub"});
  EXPECT_EXIT(run(uncreatable), ::testing::ExitedWithCode(2),
              "trace_replay: cannot create .*numalp_runner_test_not_a_dir/sub: ");
  std::filesystem::remove_all(trace_dir);
  std::filesystem::remove(not_a_dir);
}

// A sweep with a failed cell writes every row, then names each failed cell
// on stderr and exits 1, instead of exiting 0 as if every cell had run.
// Both of numalp_run's cells replay the cut trace, so both fail.
TEST(ToolDeathTest, RunWithAFailedCellExitsOneAfterEveryRow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "numalp_runner_test_failed_cell";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string trace = (dir / "cut.bin").string();
  WriteTruncatedTrace(Topology::MachineA(), trace);
  const auto run = [&] {
    if (std::freopen("/dev/null", "w", stdout) == nullptr) {
      std::_Exit(127);
    }
    std::vector<std::string> args = {NUMALP_RUN, "--workload", "trace:" + trace, "--machine", "A",
                                     "--policy", "carrefour-lp", "--out-dir", dir.string(),
                                     "--jobs", "2"};
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  };
  EXPECT_EXIT(run(), ::testing::ExitedWithCode(1),
              "numalp_run: cell 0 \\(machineA/trace:ckpt-churn/Linux-4K\\): failed: trace: "
              "truncated chunk[^\n]*\n"
              "numalp_run: cell 1 \\(machineA/trace:ckpt-churn/Carrefour-LP\\): failed: trace: "
              "truncated chunk");
  std::ifstream jsonl(dir / "run.jsonl");
  std::string line;
  int failed_rows = 0;
  while (std::getline(jsonl, line)) {
    failed_rows += line.find("\"status\":\"failed: trace: truncated chunk") != std::string::npos;
  }
  EXPECT_EQ(failed_rows, 2);
  fs::remove_all(dir);
}

// A line cut mid-row (the torn tail a killed --out-dir run leaves when it
// is not resumed) is refused like a failed row: numalp_report exits 2 naming
// the file and line before it writes anything, instead of warning and
// summarising the rows before the tear as if the sweep had finished.
TEST(ToolDeathTest, ReportRefusesATornJsonlLine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "numalp_runner_test_torn_line";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp};
  grid.sim = TinySim();
  std::ostringstream rows;
  {
    report::GridReport report(std::make_unique<report::JsonlSink>(rows), "torn", 1);
    report.Run(report::Sweep().AddGrid(grid));
  }
  const std::string text = rows.str();
  const std::size_t second_end = text.find('\n', text.find('\n') + 1);
  ASSERT_NE(second_end, std::string::npos);
  const std::size_t third_end = text.find('\n', second_end + 1);
  ASSERT_NE(third_end, std::string::npos);
  {
    std::ofstream out(dir / "torn.jsonl", std::ios::binary);
    out << text.substr(0, second_end + 1 + (third_end - second_end) / 2);
  }
  const std::string summary = (dir / "summary.json").string();
  const auto run = [&] {
    if (std::freopen("/dev/null", "w", stdout) == nullptr) {
      std::_Exit(127);
    }
    std::vector<std::string> args = {NUMALP_REPORT, dir.string(), "--summary", summary};
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  };
  EXPECT_EXIT(run(), ::testing::ExitedWithCode(2), "numalp_report: [^\n]*/torn.jsonl:3: ");
  EXPECT_FALSE(fs::exists(summary));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace numalp
