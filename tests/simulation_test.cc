// End-to-end integration tests: the paper's key mechanisms reproduced on
// reduced configurations (machine A, shortened work budgets).
#include <gtest/gtest.h>

#include "src/core/config.h"
#include "src/core/simulation.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp {
namespace {

SimConfig FastSim() {
  SimConfig sim;
  sim.accesses_per_thread_per_epoch = 2048;
  sim.max_epochs = 60;
  return sim;
}

WorkloadSpec ShortSpec(BenchmarkId id, const Topology& topo, std::uint64_t budget) {
  WorkloadSpec spec = MakeWorkloadSpec(id, topo);
  spec.steady_accesses_per_thread = budget;
  return spec;
}

RunResult RunShort(const Topology& topo, BenchmarkId id, PolicyKind kind,
                   std::uint64_t budget = 40'000, std::uint64_t seed = 42) {
  SimConfig sim = FastSim();
  sim.seed = seed;
  Simulation simulation(topo, ShortSpec(id, topo, budget), MakePolicyConfig(kind), sim);
  return simulation.Run();
}

TEST(SimulationTest, RunsToCompletionDeterministically) {
  const Topology topo = Topology::MachineA();
  const RunResult a = RunShort(topo, BenchmarkId::kBT_B, PolicyKind::kLinux4K);
  const RunResult b = RunShort(topo, BenchmarkId::kBT_B, PolicyKind::kLinux4K);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.totals.accesses, b.totals.accesses);
}

TEST(SimulationTest, DifferentSeedsProduceDifferentRuns) {
  const Topology topo = Topology::MachineA();
  const RunResult a = RunShort(topo, BenchmarkId::kBT_B, PolicyKind::kLinux4K, 40'000, 1);
  const RunResult b = RunShort(topo, BenchmarkId::kBT_B, PolicyKind::kLinux4K, 40'000, 2);
  EXPECT_NE(a.total_cycles, b.total_cycles);
}

TEST(SimulationTest, ThpBacksMemoryWithLargePages) {
  const Topology topo = Topology::MachineA();
  const RunResult linux4k = RunShort(topo, BenchmarkId::kBT_B, PolicyKind::kLinux4K);
  const RunResult thp = RunShort(topo, BenchmarkId::kBT_B, PolicyKind::kThp);
  EXPECT_EQ(linux4k.final_thp_coverage, 0.0);
  EXPECT_GT(thp.final_thp_coverage, 0.8);
}

TEST(SimulationTest, ThpEliminatesWalkMisses) {
  const Topology topo = Topology::MachineA();
  const RunResult linux4k = RunShort(topo, BenchmarkId::kIS_D, PolicyKind::kLinux4K);
  const RunResult thp = RunShort(topo, BenchmarkId::kIS_D, PolicyKind::kThp);
  EXPECT_GT(linux4k.WalkL2MissFrac(), 0.02);
  EXPECT_LT(thp.WalkL2MissFrac(), linux4k.WalkL2MissFrac() / 4);
}

TEST(SimulationTest, ThpReducesFaultCount) {
  const Topology topo = Topology::MachineA();
  const RunResult linux4k = RunShort(topo, BenchmarkId::kWC, PolicyKind::kLinux4K);
  const RunResult thp = RunShort(topo, BenchmarkId::kWC, PolicyKind::kThp);
  EXPECT_GT(linux4k.totals.faults_4k, 100u);
  // 2MB faults replace hundreds of 4KB faults in the THP-eligible regions.
  EXPECT_LT(thp.totals.faults_4k, linux4k.totals.faults_4k);
  EXPECT_GT(thp.totals.faults_2m, 0u);
  // And the fault-handler share of runtime collapses (Table 1's WC row).
  EXPECT_LT(thp.SteadyMaxFaultSharePct() + 1.0, linux4k.SteadyMaxFaultSharePct());
}

TEST(SimulationTest, HotPageEffectAppearsUnderThp) {
  // CG's signature (Table 2): NHP 0 -> 3 and a large imbalance jump.
  const Topology topo = Topology::MachineA();
  const RunResult linux4k = RunShort(topo, BenchmarkId::kCG_D, PolicyKind::kLinux4K);
  const RunResult thp = RunShort(topo, BenchmarkId::kCG_D, PolicyKind::kThp);
  EXPECT_EQ(linux4k.Nhp(), 0);
  EXPECT_GE(thp.Nhp(), 2);
  EXPECT_GT(thp.ImbalancePct(), linux4k.ImbalancePct() + 15.0);
  EXPECT_GT(thp.PamupPct(), linux4k.PamupPct() + 4.0);
}

TEST(SimulationTest, CarrefourLpEliminatesHotPages) {
  const Topology topo = Topology::MachineA();
  const RunResult thp = RunShort(topo, BenchmarkId::kCG_D, PolicyKind::kThp);
  const RunResult lp = RunShort(topo, BenchmarkId::kCG_D, PolicyKind::kCarrefourLp);
  EXPECT_GE(thp.Nhp(), 2);
  EXPECT_EQ(lp.Nhp(), 0);
  EXPECT_GT(lp.total_splits, 0u);
  EXPECT_LT(lp.history.back().metrics.imbalance_pct,
            thp.history.back().metrics.imbalance_pct);
}

TEST(SimulationTest, FalseSharingAppearsUnderThpAndLpRestoresLar) {
  // UA's signature (Tables 2-3): PSP jumps, LAR collapses under THP;
  // Carrefour-LP splits and recovers most of the locality.
  const Topology topo = Topology::MachineA();
  const RunResult linux4k = RunShort(topo, BenchmarkId::kUA_B, PolicyKind::kLinux4K);
  const RunResult thp = RunShort(topo, BenchmarkId::kUA_B, PolicyKind::kThp);
  const RunResult lp = RunShort(topo, BenchmarkId::kUA_B, PolicyKind::kCarrefourLp);
  EXPECT_GT(linux4k.LarPct(), 85.0);
  EXPECT_LT(thp.LarPct(), linux4k.LarPct() - 15.0);
  EXPECT_GT(thp.PspPct(), linux4k.PspPct() + 20.0);
  EXPECT_GT(lp.LarPct(), thp.LarPct() + 10.0);
  EXPECT_GT(lp.total_splits, 0u);
}

TEST(SimulationTest, CarrefourFixesMasterInitializedImbalance) {
  // EP's pre-existing imbalance (Figure 5): present under Linux AND THP,
  // repaired by the Carrefour component.
  const Topology topo = Topology::MachineA();
  const RunResult linux4k =
      RunShort(topo, BenchmarkId::kEP_C, PolicyKind::kLinux4K, /*budget=*/120'000);
  const RunResult lp =
      RunShort(topo, BenchmarkId::kEP_C, PolicyKind::kCarrefourLp, /*budget=*/120'000);
  EXPECT_GT(linux4k.ImbalancePct(), 60.0);
  EXPECT_LT(lp.history.back().metrics.imbalance_pct, 30.0);
  // The rebalance pays off (full-length runs show much larger gains; the
  // shortened test budget amortizes less of the migration cost).
  EXPECT_GT(ImprovementPct(linux4k, lp), 2.0);
}

TEST(SimulationTest, PoliciesReportOverheadAndActions) {
  const Topology topo = Topology::MachineA();
  const RunResult lp = RunShort(topo, BenchmarkId::kCG_D, PolicyKind::kCarrefourLp);
  EXPECT_GT(lp.total_policy_overhead, 0u);
  EXPECT_GT(lp.total_migrations, 0u);
  const RunResult linux4k = RunShort(topo, BenchmarkId::kCG_D, PolicyKind::kLinux4K);
  EXPECT_EQ(linux4k.total_policy_overhead, 0u);
  EXPECT_EQ(linux4k.total_migrations, 0u);
}

TEST(SimulationTest, ConservativeOnlyStartsWithSmallPages) {
  const Topology topo = Topology::MachineA();
  const RunResult conservative =
      RunShort(topo, BenchmarkId::kWC, PolicyKind::kConservativeOnly);
  // The run starts on 4KB pages (so 4KB faults dominate the setup phase) and
  // the component enables THP only after observing fault pressure.
  ASSERT_FALSE(conservative.history.empty());
  const RunResult thp = RunShort(topo, BenchmarkId::kWC, PolicyKind::kThp);
  EXPECT_GT(conservative.totals.faults_4k, thp.totals.faults_4k);
  bool enabled_later = false;
  for (const auto& record : conservative.history) {
    enabled_later = enabled_later || record.thp_alloc_enabled;
  }
  EXPECT_TRUE(enabled_later) << "WC's fault pressure must re-enable 2MB allocation";
}

TEST(SimulationTest, Explicit1GPagesCreateExtremeHotPage) {
  // Section 4.4 on a machine with 1GB frames available.
  const Topology topo = Topology::MachineB(/*memory_scale=*/8);
  SimConfig sim = FastSim();
  WorkloadSpec spec = ShortSpec(BenchmarkId::kStreamcluster, topo, 20'000);
  for (auto& region : spec.regions) {
    region.explicit_page = PageSize::k1G;
  }
  Simulation huge(topo, spec, MakePolicyConfig(PolicyKind::kLinux4K), sim);
  const RunResult result = huge.Run();
  EXPECT_GT(result.totals.faults_1g, 0u);
  EXPECT_GT(result.PamupPct(), 30.0);  // nearly everything in one page
  EXPECT_GT(result.ImbalancePct(), 100.0);
}

TEST(SimulationTest, ImprovementPctIsAntisymmetricAroundBaseline) {
  const Topology topo = Topology::MachineA();
  const RunResult a = RunShort(topo, BenchmarkId::kBT_B, PolicyKind::kLinux4K);
  EXPECT_DOUBLE_EQ(ImprovementPct(a, a), 0.0);
}

// Every policy kind must run to completion on a tiny machine — a smoke sweep
// across the full policy matrix.
class PolicyMatrixTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyMatrixTest, RunsCleanlyOnTinyMachine) {
  const Topology topo = Topology::Tiny(512 * kMiB);
  SimConfig sim = FastSim();
  Simulation simulation(topo, ShortSpec(BenchmarkId::kUA_B, topo, 30'000),
                        MakePolicyConfig(GetParam()), sim);
  const RunResult result = simulation.Run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.total_cycles, 0u);
  EXPECT_GT(result.totals.accesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyMatrixTest,
                         ::testing::Values(PolicyKind::kLinux4K, PolicyKind::kThp,
                                           PolicyKind::kCarrefour2M,
                                           PolicyKind::kReactiveOnly,
                                           PolicyKind::kConservativeOnly,
                                           PolicyKind::kCarrefourLp));

// Determinism property across the whole policy matrix.
class PolicyDeterminismTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyDeterminismTest, SameSeedSameCycles) {
  const Topology topo = Topology::Tiny(512 * kMiB);
  SimConfig sim = FastSim();
  const WorkloadSpec spec = ShortSpec(BenchmarkId::kCG_D, topo, 20'000);
  Simulation first(topo, spec, MakePolicyConfig(GetParam()), sim);
  Simulation second(topo, spec, MakePolicyConfig(GetParam()), sim);
  const RunResult a = first.Run();
  const RunResult b = second.Run();
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.total_splits, b.total_splits);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyDeterminismTest,
                         ::testing::Values(PolicyKind::kLinux4K, PolicyKind::kThp,
                                           PolicyKind::kCarrefour2M,
                                           PolicyKind::kCarrefourLp));

}  // namespace
}  // namespace numalp
