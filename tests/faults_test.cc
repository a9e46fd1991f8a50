// Fault injection + runner resilience tests (DESIGN.md Section 12): the
// fault schedule must be a pure function of (config, seed) — byte-identical
// JSONL across jobs x shards x engine under an active profile — the
// Carrefour retry/backoff/abandon state machine must follow its documented
// transitions, a resumed grid must reproduce an uninterrupted run's files
// byte-for-byte, and faults=off must stay inert.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <regex>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/carrefour/carrefour.h"
#include "src/core/config.h"
#include "src/core/faults.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/mem/phys_mem.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/report/sink.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp {
namespace {

namespace fs = std::filesystem;

SimConfig TinySim() {
  SimConfig sim;
  sim.max_epochs = 8;
  sim.accesses_per_thread_per_epoch = 1024;
  return sim;
}

// The fault_grace shape at unit-test scale: per (profile, seed) one Linux-4K
// baseline followed by THP and Carrefour-LP cells against it, all rows
// variant-tagged with the profile name.
report::Sweep FaultSweep(const std::vector<FaultProfile>& profiles, int seeds,
                         const SimConfig& base_sim) {
  const Topology topo = Topology::Tiny();
  report::Sweep sweep;
  for (const FaultProfile profile : profiles) {
    const std::string variant = std::string("faults=") + std::string(NameOf(profile));
    for (int s = 0; s < seeds; ++s) {
      RunSpec base{topo, MakeWorkloadSpec(BenchmarkId::kCG_D, topo), {}, base_sim};
      base.sim.seed = 42 + static_cast<std::uint64_t>(s);
      base.sim.faults.profile = profile;
      sweep.AddBaseline(base, variant, s, {PolicyKind::kThp, PolicyKind::kCarrefourLp});
    }
  }
  return sweep;
}

std::string RenderFaultCells(const std::vector<FaultProfile>& profiles, int jobs,
                             int shards) {
  SimConfig sim = TinySim();
  sim.shards = shards;
  sim.shards_force = true;  // real worker threads even on a busy host
  std::ostringstream out;
  {
    report::GridReport report(std::make_unique<report::JsonlSink>(out), "faults_test",
                              jobs);
    report.Run(FaultSweep(profiles, /*seeds=*/2, sim));
  }
  return out.str();
}

// The acceptance matrix: under active fault profiles the streamed JSONL is
// byte-identical at every jobs x shards combination. All FaultPlan draws
// happen at serial points of the epoch loop, so the schedule cannot depend
// on how the work was parallelized.
TEST(FaultDeterminismTest, JsonlByteIdenticalAcrossJobsAndShards) {
  const std::vector<FaultProfile> profiles = {FaultProfile::kFrag,
                                              FaultProfile::kChurn};
  const std::string golden =
      RenderFaultCells(profiles, /*jobs=*/1, /*shards=*/1);
  EXPECT_FALSE(golden.empty());
  // The fault machinery must actually be active in the golden, or the matrix
  // proves nothing: the frag profile pre-fragments every node's buddy lists.
  EXPECT_NE(golden.find("\"variant\":\"faults=frag\""), std::string::npos);
  EXPECT_EQ(golden.find("\"frag_index_pct\":0,"), std::string::npos);
  for (const int jobs : {1, 8}) {
    for (const int shards : {1, 4}) {
      if (jobs == 1 && shards == 1) {
        continue;
      }
      EXPECT_EQ(RenderFaultCells(profiles, jobs, shards), golden)
          << "jobs " << jobs << " shards " << shards;
    }
  }
}

// faults=off is the default-constructed config and must stay inert: every
// fault counter stays zero, and the bytes match a run that never heard of
// fault injection.
TEST(FaultDeterminismTest, OffProfileIsByteIdenticalAndInert) {
  const std::string plain =
      RenderFaultCells({FaultProfile::kOff}, /*jobs=*/1, /*shards=*/1);

  const SimConfig sim = TinySim();
  ASSERT_FALSE(sim.faults.enabled());
  std::ostringstream out;
  std::vector<RunResult> results;
  {
    report::GridReport report(std::make_unique<report::JsonlSink>(out), "faults_test",
                              1);
    results = report.Run(FaultSweep({FaultProfile::kOff}, /*seeds=*/2, sim));
  }
  EXPECT_EQ(out.str(), plain);
  for (const RunResult& result : results) {
    EXPECT_EQ(result.status, "ok");
    EXPECT_EQ(result.fault_alloc_failures, 0u);
    EXPECT_EQ(result.fault_migration_failures, 0u);
    EXPECT_EQ(result.fault_truncated_plans, 0u);
    EXPECT_EQ(result.fault_pressure_epochs, 0u);
    EXPECT_EQ(result.thp_fallback_faults, 0u);
  }
}

// --- FaultPlan unit behavior ------------------------------------------------

namespace {

// How many order-9 allocations the machine could serve right now: free
// blocks at order 9 plus higher-order blocks, each worth 2^(order-9)
// order-9 pieces. (Fresh memory sits fully coalesced at high orders, so
// counting order-9 free-list entries alone would read 0 before pinning.)
std::uint64_t Order9Capacity(const PhysicalMemory& phys) {
  std::uint64_t capacity = 0;
  for (int node = 0; node < phys.num_nodes(); ++node) {
    for (int order = 9; order <= kMaxOrder; ++order) {
      capacity += phys.node_allocator(node).FreeBlocksOfOrder(order)
                  << (order - 9);
    }
  }
  return capacity;
}

}  // namespace

TEST(FaultPlanTest, FragPrepareFragmentsBuddyLists) {
  PhysicalMemory phys(Topology::Tiny());
  const std::uint64_t before = Order9Capacity(phys);
  FaultConfig config;
  config.profile = FaultProfile::kFrag;
  FaultPlan plan(config, /*seed=*/42);
  plan.Prepare(phys);
  const std::uint64_t after = Order9Capacity(phys);
  // Pinning one frame inside a chunk destroys that chunk's order-9 block.
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0u);  // scarce, not absent: some chunks stay whole
}

TEST(FaultPlanTest, LargeMigrationsFailFarMoreOftenThanSmall) {
  FaultConfig config;
  config.profile = FaultProfile::kFrag;  // 4KB at 5%, 2MB at 70%
  FaultPlan plan(config, /*seed=*/7);
  int small = 0;
  int large = 0;
  for (int i = 0; i < 400; ++i) {
    small += plan.FailMigration(/*to_node=*/0, /*order=*/0) ? 1 : 0;
    large += plan.FailMigration(/*to_node=*/0, /*order=*/9) ? 1 : 0;
  }
  EXPECT_LT(small, 60);
  EXPECT_GT(large, 200);
  EXPECT_EQ(plan.counters().migration_failures,
            static_cast<std::uint64_t>(small + large));
}

TEST(FaultPlanTest, SameSeedSameSchedule) {
  FaultConfig config;
  config.profile = FaultProfile::kChurn;
  FaultPlan a(config, 99);
  FaultPlan b(config, 99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.FailLargeAlloc(i % 2), b.FailLargeAlloc(i % 2));
    EXPECT_EQ(a.FailMigration(i % 2, i % 2 == 0 ? 9 : 0),
              b.FailMigration(i % 2, i % 2 == 0 ? 9 : 0));
    EXPECT_EQ(a.PlanBudget(100), b.PlanBudget(100));
  }
  EXPECT_EQ(a.counters().migration_failures, b.counters().migration_failures);
  EXPECT_EQ(a.counters().truncated_plans, b.counters().truncated_plans);
  EXPECT_GT(a.counters().truncated_plans, 0u);  // churn truncates at 25%
}

TEST(FaultPlanTest, PlanBudgetKeepsAtLeastOneMigration) {
  FaultConfig config;
  config.profile = FaultProfile::kChurn;
  FaultPlan plan(config, 3);
  for (int i = 0; i < 200; ++i) {
    const std::size_t budget = plan.PlanBudget(10);
    EXPECT_GE(budget, 1u);
    EXPECT_LE(budget, 10u);
  }
  EXPECT_EQ(plan.PlanBudget(0), 0u);
}

TEST(FaultPlanTest, PromoteBackoffDoublesAndAges) {
  PhysicalMemory phys(Topology::Tiny());
  FaultConfig config;
  config.profile = FaultProfile::kFrag;
  FaultPlan plan(config, 5);
  const Addr window = 0x200000;
  plan.ArmPromoteBackoff(window);
  EXPECT_TRUE(plan.InPromoteBackoff(window));
  // Base backoff is 4 epochs of aging.
  for (int epoch = 0; epoch < 3; ++epoch) {
    plan.BeginEpoch(epoch, phys);
    EXPECT_TRUE(plan.InPromoteBackoff(window)) << "epoch " << epoch;
  }
  plan.BeginEpoch(3, phys);
  EXPECT_FALSE(plan.InPromoteBackoff(window));
  // Re-arming after a second failure doubles the length to 8.
  plan.ArmPromoteBackoff(window);
  for (int epoch = 4; epoch < 11; ++epoch) {
    plan.BeginEpoch(epoch, phys);
    EXPECT_TRUE(plan.InPromoteBackoff(window)) << "epoch " << epoch;
  }
  plan.BeginEpoch(11, phys);
  EXPECT_FALSE(plan.InPromoteBackoff(window));
  EXPECT_EQ(plan.counters().promote_backoffs, 2u);
}

// --- Carrefour retry/backoff/abandon state machine --------------------------

PageAgg SingleNodeAgg(int node, int samples, int home) {
  PageAgg agg;
  agg.req_node_counts[static_cast<std::size_t>(node)] =
      static_cast<std::uint32_t>(samples);
  agg.total = static_cast<std::uint64_t>(samples);
  agg.dram = agg.total;
  agg.home_node = home;
  agg.size = PageSize::k4K;
  agg.core_mask = 1;
  return agg;
}

TEST(CarrefourFaultTest, FailedMigrationBacksOffDoublingThenAbandons) {
  Carrefour carrefour(CarrefourConfig{}, {0, 1, 2, 3}, 1);  // backoff 2, abandon after 3
  PageAggMap pages;
  pages[0x1000] = SingleNodeAgg(/*node=*/2, /*samples=*/8, /*home=*/0);

  ASSERT_EQ(carrefour.Plan(pages, 0).size(), 1u);
  carrefour.NoteMigrationFailure(0x1000, 0);
  EXPECT_EQ(carrefour.retried_migrations(), 1u);
  // First backoff: 2 epochs; the cooldown stamp is cleared so the backoff —
  // not the generic per-page cooldown — schedules the retry.
  EXPECT_TRUE(carrefour.Plan(pages, 1).empty());
  ASSERT_EQ(carrefour.Plan(pages, 2).size(), 1u);

  carrefour.NoteMigrationFailure(0x1000, 2);
  EXPECT_EQ(carrefour.retried_migrations(), 2u);
  // Second backoff doubles to 4 epochs.
  EXPECT_TRUE(carrefour.Plan(pages, 5).empty());
  ASSERT_EQ(carrefour.Plan(pages, 6).size(), 1u);

  // Third consecutive failure: abandoned, never planned again.
  carrefour.NoteMigrationFailure(0x1000, 6);
  EXPECT_EQ(carrefour.abandoned_pages(), 1u);
  EXPECT_TRUE(carrefour.Plan(pages, 20).empty());
  EXPECT_TRUE(carrefour.Plan(pages, 100).empty());

  // A split/unmap forgets the page: it becomes plannable again.
  carrefour.Forget(0x1000);
  EXPECT_EQ(carrefour.Plan(pages, 100).size(), 1u);
}

TEST(CarrefourFaultTest, SuccessResetsFailureStreak) {
  Carrefour carrefour(CarrefourConfig{}, {0, 1, 2, 3}, 1);
  PageAggMap pages;
  pages[0x1000] = SingleNodeAgg(2, 8, 0);

  ASSERT_EQ(carrefour.Plan(pages, 0).size(), 1u);
  carrefour.NoteMigrationFailure(0x1000, 0);
  carrefour.NoteMigrationFailure(0x1000, 2);  // streak 2 of 3
  carrefour.NoteMigrationSuccess(0x1000);     // transient cleared
  // Two more failures reach streak 2, not abandonment.
  carrefour.NoteMigrationFailure(0x1000, 8);
  carrefour.NoteMigrationFailure(0x1000, 12);
  EXPECT_EQ(carrefour.abandoned_pages(), 0u);
  // The third consecutive one abandons.
  carrefour.NoteMigrationFailure(0x1000, 20);
  EXPECT_EQ(carrefour.abandoned_pages(), 1u);
}

// --- Checkpoint + resume ----------------------------------------------------

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Keep the first `keep` '\n'-terminated lines of `bytes`.
std::string LinePrefix(const std::string& bytes, std::size_t keep) {
  std::size_t pos = 0;
  for (std::size_t line = 0; line < keep; ++line) {
    pos = bytes.find('\n', pos);
    if (pos == std::string::npos) {
      return bytes;
    }
    ++pos;
  }
  return bytes.substr(0, pos);
}

// Rewinds an --out-dir bench directory to the state a SIGKILL after
// `cells_done` durable rows leaves behind: files holding the durable prefix
// plus a torn tail of partially flushed bytes, and the manifest the last
// completed Checkpoint() renamed into place.
void EmulateKillAfter(const fs::path& dir, const std::string& bench,
                      std::size_t cells_done) {
  const std::string csv = ReadFile(dir / (bench + ".csv"));
  const std::string jsonl = ReadFile(dir / (bench + ".jsonl"));
  // +1: the CSV carries its header line before the first row.
  const std::string csv_prefix = LinePrefix(csv, cells_done + 1);
  const std::string jsonl_prefix = LinePrefix(jsonl, cells_done);
  std::ostringstream manifest;
  manifest << "{\"version\":1,\"bench\":\"" << bench
           << "\",\"cells_done\":" << cells_done
           << ",\"csv_bytes\":" << csv_prefix.size()
           << ",\"jsonl_bytes\":" << jsonl_prefix.size() << "}\n";
  // Torn tails: the next row's bytes were partially flushed when the
  // process died. Resume must truncate them away.
  WriteFile(dir / (bench + ".csv"), csv_prefix + "faultgrace,torn");
  WriteFile(dir / (bench + ".jsonl"), jsonl_prefix + "{\"bench\":\"torn");
  WriteFile(dir / (bench + ".manifest.json"), manifest.str());
}

report::Options OutDirOptions(const fs::path& dir) {
  report::Options options;
  options.format = "csv";  // stdout stays line-oriented during tests
  options.out_dir = dir.string();
  options.jobs = 2;
  options.sim = TinySim();
  return options;
}

TEST(ResumeTest, ResumedCellRunMatchesUninterruptedByteForByte) {
  const report::ToolInfo info = {"faults_test", "faultgrace", "resume test"};
  const fs::path root = fs::temp_directory_path() / "numalp_faults_test_cells";
  fs::remove_all(root);
  const fs::path full_dir = root / "full";
  const fs::path killed_dir = root / "killed";
  fs::create_directories(full_dir);
  fs::create_directories(killed_dir);

  const report::Sweep sweep =
      FaultSweep({FaultProfile::kOff, FaultProfile::kFrag}, /*seeds=*/2, TinySim());

  {
    report::GridReport report(OutDirOptions(full_dir), info);
    report.Run(sweep);
  }

  // The killed run: same bytes, dead after 7 of 12 cells — mid-variant, so
  // the surviving cells' baselines and seed columns come from recovery.
  for (const char* file : {"faultgrace.csv", "faultgrace.jsonl"}) {
    fs::copy_file(full_dir / file, killed_dir / file);
  }
  EmulateKillAfter(killed_dir, "faultgrace", /*cells_done=*/7);

  report::Options resume_options = OutDirOptions(killed_dir);
  resume_options.resume = true;
  {
    report::GridReport report(resume_options, info);
    report.Run(sweep);
  }

  EXPECT_EQ(ReadFile(killed_dir / "faultgrace.csv"), ReadFile(full_dir / "faultgrace.csv"));
  EXPECT_EQ(ReadFile(killed_dir / "faultgrace.jsonl"),
            ReadFile(full_dir / "faultgrace.jsonl"));
  EXPECT_EQ(ReadFile(killed_dir / "faultgrace.manifest.json"),
            ReadFile(full_dir / "faultgrace.manifest.json"));
  fs::remove_all(root);
}

TEST(ResumeTest, ResumedGridRunMatchesUninterruptedByteForByte) {
  const report::ToolInfo info = {"faults_test", "gridresume", "resume test"};
  const fs::path root = fs::temp_directory_path() / "numalp_faults_test_grid";
  fs::remove_all(root);
  const fs::path full_dir = root / "full";
  const fs::path killed_dir = root / "killed";
  fs::create_directories(full_dir);
  fs::create_directories(killed_dir);

  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kCG_D, BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  grid.sim.faults.profile = FaultProfile::kFrag;
  const report::Sweep sweep = report::Sweep().AddGrid(grid);

  {
    report::GridReport report(OutDirOptions(full_dir), info);
    report.Run(sweep);
  }

  // Die mid-grid: the recovered prefix holds Linux-4K baselines whose cycles
  // later policy cells need for their improvement column.
  for (const char* file : {"gridresume.csv", "gridresume.jsonl"}) {
    fs::copy_file(full_dir / file, killed_dir / file);
  }
  EmulateKillAfter(killed_dir, "gridresume", /*cells_done=*/5);

  report::Options resume_options = OutDirOptions(killed_dir);
  resume_options.resume = true;
  {
    report::GridReport report(resume_options, info);
    report.Run(sweep);
  }

  EXPECT_EQ(ReadFile(killed_dir / "gridresume.csv"), ReadFile(full_dir / "gridresume.csv"));
  EXPECT_EQ(ReadFile(killed_dir / "gridresume.jsonl"),
            ReadFile(full_dir / "gridresume.jsonl"));
  EXPECT_EQ(ReadFile(killed_dir / "gridresume.manifest.json"),
            ReadFile(full_dir / "gridresume.manifest.json"));
  fs::remove_all(root);
}

// A finished two-row --out-dir run whose manifest `corrupt` rewrites (it
// gets the manifest text and the directory); resuming it over the sweep's
// first `resumed_cells` cells must then exit 2 naming the manifest and
// matching `expected`. Each case once exited 0.
void ExpectManifestRejected(const std::function<std::string(const std::string&,
                                                            const fs::path&)>& corrupt,
                            const std::string& expected, std::size_t resumed_cells = 2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const report::ToolInfo info = {"faults_test", "manifest", "manifest test"};
  // Named by the test, not the pid: the threadsafe death test re-runs the
  // test body in a fresh process.
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("numalp_faults_test_") +
                        ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kThp};
  grid.num_seeds = 1;
  grid.sim = TinySim();
  report::Sweep sweep = report::Sweep().AddGrid(grid);
  {
    report::GridReport report(OutDirOptions(dir), info);
    report.Run(sweep);
  }
  const fs::path manifest = dir / "manifest.manifest.json";
  WriteFile(manifest, corrupt(ReadFile(manifest), dir));
  report::Options resume_options = OutDirOptions(dir);
  resume_options.resume = true;
  sweep.cells.resize(resumed_cells);
  EXPECT_EXIT(
      {
        report::GridReport report(resume_options, info);
        report.Run(sweep);
      },
      ::testing::ExitedWithCode(2), "faults_test: .*manifest.manifest.json: " + expected);
  fs::remove_all(dir);
}

// An unparsable offset read as 0: the CSV lost its header and first row.
TEST(ResumeDeathTest, MalformedOffsetIsRejected) {
  ExpectManifestRejected(
      [](const std::string& text, const fs::path&) {
        return std::regex_replace(text, std::regex("\"cells_done\":2,\"csv_bytes\":[0-9]+"),
                                  "\"cells_done\":1,\"csv_bytes\":x");
      },
      "bad value for \"csv_bytes\": x");
}

TEST(ResumeDeathTest, MissingKeyIsRejected) {
  ExpectManifestRejected(
      [](const std::string& text, const fs::path&) {
        return std::regex_replace(text, std::regex(",\"jsonl_bytes\":[0-9]+"), "");
      },
      "missing \"jsonl_bytes\"");
}

TEST(ResumeDeathTest, OtherVersionIsRejected) {
  ExpectManifestRejected(
      [](const std::string& text, const fs::path&) {
        return std::regex_replace(text, std::regex("\"version\":1"), "\"version\":2");
      },
      "bad value for \"version\": 2");
}

// A manifest recorded by another bench was accepted as this bench's.
TEST(ResumeDeathTest, OtherBenchIsRejected) {
  ExpectManifestRejected(
      [](const std::string& text, const fs::path&) {
        return std::regex_replace(text, std::regex("\"bench\":\"manifest\""),
                                  "\"bench\":\"fig2\"");
      },
      "bench \"fig2\" is not this bench \\(\"manifest\"\\)");
}

// Offsets past the end of a file silently restarted the run.
TEST(ResumeDeathTest, OffsetPastTheEndIsRejected) {
  ExpectManifestRejected(
      [](const std::string& text, const fs::path& dir) {
        const auto size = fs::file_size(dir / "manifest.jsonl");
        return std::regex_replace(text, std::regex("\"jsonl_bytes\":[0-9]+"),
                                  "\"jsonl_bytes\":" + std::to_string(size + 1));
      },
      "\"jsonl_bytes\": [0-9]+ is past the end of .*manifest.jsonl");
}

// A manifest that recorded more cells than the resumed sweep has: a
// Carrefour-LP numalp_run resumed as a Linux-4K one kept the row the second
// run never asked for.
TEST(ResumeDeathTest, MoreCellsThanTheSweepIsRejected) {
  ExpectManifestRejected([](const std::string& text, const fs::path&) { return text; },
                         "\"cells_done\": 2 exceeds the sweep's 1 cells", /*resumed_cells=*/1);
}

}  // namespace
}  // namespace numalp
