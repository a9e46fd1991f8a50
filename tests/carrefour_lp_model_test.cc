// The redesigned reactive cost/decision model (DESIGN.md Section 8):
// hysteresis state-machine goldens, the re-promotion round trip, cost-budget
// demotion ordering under exhaustion, the realized-gain accounting on both
// the migration-gain exit and the split experiment, and windowed-vs-serial
// engine bit-identity across the new model knobs. The paper's literal
// Algorithm 1 semantics (the model's ablation baseline) stay pinned in
// carrefour_lp_test.cc.
#include <gtest/gtest.h>

#include "src/core/carrefour_lp.h"
#include "src/core/config.h"
#include "src/core/lar_estimator.h"
#include "src/core/simulation.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"
#include "tests/oracles/identity.h"
#include "tests/oracles/serial_engine.h"

namespace numalp {
namespace {

PageAgg SharedLargePage(std::uint64_t samples, int sharers, PageSize size = PageSize::k2M) {
  PageAgg agg;
  agg.size = size;
  agg.total = samples;
  agg.dram = samples;
  agg.home_node = 0;
  agg.req_node_counts[0] = static_cast<std::uint32_t>(samples / 2);
  agg.req_node_counts[1] = static_cast<std::uint32_t>(samples - samples / 2);
  agg.core_mask = (1ull << sharers) - 1;
  return agg;
}

// Cost inputs generous enough that the veto always approves: the state
// machine is under test, not the economics.
LpCostInputs RichCostInputs() {
  LpCostInputs costs;
  costs.epoch_accesses = 100'000;
  costs.epoch_dram_accesses = 50'000;
  costs.epoch_wall = 1'000'000;
  costs.walk_cycles_4k = 60;
  costs.remote_dram_penalty = 300;
  costs.split_op_cycles = 5'500;
  costs.tlb_4k_reach_pages = 1024 * 24;
  return costs;
}

class LpModelTest : public ::testing::Test {
 protected:
  LpModelTest() : config_(MakePolicyConfig(PolicyKind::kCarrefourLp)) {
    thp_.alloc_enabled = true;
    thp_.promote_enabled = true;
  }

  CarrefourLp MakeLp() { return CarrefourLp(config_, thp_); }

  // A heavily-sampled 4KB page: soaks up sample share so the large pages
  // under test stay below the 6% hot bar (the hot path has its own tests).
  void AddColdBallast(Addr base = 1ull << 40, std::uint64_t samples = 4000) {
    PageAgg ballast;
    ballast.size = PageSize::k4K;
    ballast.total = samples;
    ballast.dram = samples;
    ballast.home_node = 0;
    ballast.req_node_counts[0] = static_cast<std::uint32_t>(samples);
    ballast.core_mask = 1;
    pages_[base] = ballast;
  }

  // An observation whose split estimate massively beats both the measured
  // and the what-if-Carrefour LAR: desire is kOn every epoch.
  LpObservation SplitGainObservation(const PageAggMap& pages, double current = 30.0) {
    LpObservation obs;
    obs.lar.current_pct = current;
    obs.lar.carrefour_pct = current + 2.0;
    obs.lar.carrefour_split_pct = 95.0;
    obs.mapping_pages = &pages;
    obs.num_nodes = 4;
    obs.costs = RichCostInputs();
    return obs;
  }

  ThpState thp_;
  PolicyConfig config_;
  PageAggMap pages_;
};

// --- Hysteresis state machine ----------------------------------------------

TEST_F(LpModelTest, EngagesOnlyAfterPersistentSplitGain) {
  config_.lp_model.split_on_epochs = 3;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  AddColdBallast();
  for (int epoch = 0; epoch < 2; ++epoch) {
    const LpDecision decision = lp.Step(SplitGainObservation(pages_));
    EXPECT_FALSE(decision.split_pages_flag) << "epoch " << epoch;
    EXPECT_TRUE(decision.split_shared.empty()) << "epoch " << epoch;
  }
  const LpDecision decision = lp.Step(SplitGainObservation(pages_));
  EXPECT_TRUE(decision.split_pages_flag);
  EXPECT_FALSE(decision.split_shared.empty());
  EXPECT_FALSE(thp_.alloc_enabled);
}

TEST_F(LpModelTest, OneNoisyEpochResetsTheOnStreak) {
  config_.lp_model.split_on_epochs = 3;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  lp.Step(SplitGainObservation(pages_));
  lp.Step(SplitGainObservation(pages_));
  // Neither condition fires this epoch: the streak restarts.
  LpObservation quiet = SplitGainObservation(pages_);
  quiet.lar.carrefour_split_pct = quiet.lar.current_pct + 1.0;
  lp.Step(quiet);
  EXPECT_EQ(lp.stats().on_streak, 0);
  lp.Step(SplitGainObservation(pages_));
  const LpDecision decision = lp.Step(SplitGainObservation(pages_));
  EXPECT_FALSE(decision.split_pages_flag);  // only 2 consecutive kOn epochs
}

TEST_F(LpModelTest, DisengagesAfterQuietPeriodAndReenablesAlloc) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.split_off_epochs = 3;
  // Keep the periodic review out of this test's way.
  config_.lp_model.split_patience_epochs = 100;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  ASSERT_TRUE(lp.Step(SplitGainObservation(pages_)).split_pages_flag);
  LpObservation quiet = SplitGainObservation(pages_);
  quiet.lar.carrefour_split_pct = quiet.lar.current_pct + 1.0;  // gain gone
  lp.Step(quiet);
  lp.Step(quiet);
  EXPECT_TRUE(lp.split_pages_flag());  // 2 quiet epochs < split_off_epochs
  lp.Step(quiet);
  EXPECT_FALSE(lp.split_pages_flag());  // 3rd quiet epoch disengages
  EXPECT_TRUE(thp_.alloc_enabled);      // re-promotion path re-enabled 2MB
}

// --- Re-promotion round trip -----------------------------------------------

TEST_F(LpModelTest, RepromotionRoundTripDrainsDemotedWindowsInAscendingOrder) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.split_off_epochs = 1;
  config_.lp_model.split_patience_epochs = 100;
  config_.lp_model.repromote_max_per_epoch = 2;
  CarrefourLp lp = MakeLp();
  // Insert out of ascending order: the canonical traversal must not care.
  pages_[3 * kBytes2M] = SharedLargePage(40, 4);
  pages_[1 * kBytes2M] = SharedLargePage(40, 4);
  pages_[2 * kBytes2M] = SharedLargePage(40, 4);
  const LpDecision split = lp.Step(SplitGainObservation(pages_));
  ASSERT_EQ(split.split_shared.size(), 3u);
  EXPECT_EQ(lp.stats().pending_repromotions, 3u);

  // The thrash subsides: the split gain disappears and the mode disengages;
  // demoted windows come back in ascending order, bounded per epoch.
  LpObservation subsided;
  PageAggMap empty;
  subsided.lar.current_pct = 85.0;
  subsided.lar.carrefour_pct = 86.0;
  subsided.lar.carrefour_split_pct = 86.0;
  subsided.mapping_pages = &empty;
  subsided.costs = RichCostInputs();
  const LpDecision first = lp.Step(subsided);
  EXPECT_FALSE(first.split_pages_flag);
  ASSERT_EQ(first.repromote_windows.size(), 2u);
  EXPECT_EQ(first.repromote_windows[0], 1 * kBytes2M);
  EXPECT_EQ(first.repromote_windows[1], 2 * kBytes2M);
  EXPECT_TRUE(thp_.alloc_enabled);
  const LpDecision second = lp.Step(subsided);
  ASSERT_EQ(second.repromote_windows.size(), 1u);
  EXPECT_EQ(second.repromote_windows[0], 3 * kBytes2M);
  EXPECT_EQ(lp.stats().pending_repromotions, 0u);
  EXPECT_TRUE(lp.Step(subsided).repromote_windows.empty());
}

TEST_F(LpModelTest, RepromotionDisabledKeepsWindowsDemoted) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.split_off_epochs = 1;
  config_.lp_model.split_patience_epochs = 100;
  config_.lp_model.repromotion = false;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  lp.Step(SplitGainObservation(pages_));
  LpObservation subsided;
  PageAggMap empty;
  subsided.lar.current_pct = 85.0;
  subsided.lar.carrefour_pct = 86.0;
  subsided.lar.carrefour_split_pct = 86.0;
  subsided.mapping_pages = &empty;
  for (int epoch = 0; epoch < 4; ++epoch) {
    EXPECT_TRUE(lp.Step(subsided).repromote_windows.empty());
  }
}

// --- Cost-aware engagement and budget --------------------------------------

TEST_F(LpModelTest, CostModelVetoesMarginalSplitPromises) {
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 8);
  // Split estimate only a hair over the threshold: after the estimator-bias
  // margin the incremental gain is negative and the engagement is vetoed,
  // however long the signal persists.
  LpObservation obs = SplitGainObservation(pages_, /*current=*/80.0);
  obs.lar.carrefour_pct = 82.0;
  obs.lar.carrefour_split_pct = 88.0;  // +8 > 5-point bar, < 12-point margin
  for (int epoch = 0; epoch < 10; ++epoch) {
    EXPECT_FALSE(lp.Step(obs).split_pages_flag) << "epoch " << epoch;
  }
  EXPECT_GE(lp.stats().cost_vetoes, 10u);
}

TEST_F(LpModelTest, BudgetExhaustionDemotesAscendingPrefix) {
  config_.lp_model.split_on_epochs = 1;
  CarrefourLp lp = MakeLp();
  for (Addr base = 0; base < 20 * kBytes2M; base += kBytes2M) {
    pages_[base] = SharedLargePage(10, 3);
  }
  LpObservation obs = SplitGainObservation(pages_);
  // Budget covers exactly three split operations.
  obs.costs.split_op_cycles = 1'000;
  obs.costs.epoch_wall = 3'000'000;
  config_.lp_model.demotion_budget_frac = 0.001;  // 3000 cycles
  CarrefourLp tight = CarrefourLp(config_, thp_);
  const LpDecision decision = tight.Step(obs);
  ASSERT_EQ(decision.split_shared.size(), 3u);
  // Exhaustion cuts the *tail*: what survives is the ascending-address
  // prefix of the candidate list.
  EXPECT_EQ(decision.split_shared[0].first, 0u * kBytes2M);
  EXPECT_EQ(decision.split_shared[1].first, 1u * kBytes2M);
  EXPECT_EQ(decision.split_shared[2].first, 2u * kBytes2M);
  EXPECT_GE(tight.stats().budget_exhaustions, 1u);
}

TEST_F(LpModelTest, BudgetNeverStarvesTheFirstCandidate) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.demotion_budget_frac = 0.0;  // zero budget
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  pages_[kBytes2M] = SharedLargePage(40, 4);
  AddColdBallast();
  const LpDecision decision = lp.Step(SplitGainObservation(pages_));
  ASSERT_EQ(decision.split_shared.size(), 1u);  // progress, however slow
  EXPECT_EQ(decision.split_shared[0].first, 0u);
}

// --- Realized-gain accounting ----------------------------------------------

TEST_F(LpModelTest, UndeliveredMigrationPromiseExpires) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.mig_gain_patience_epochs = 3;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  // Migration promises +40 points every epoch but the measured LAR never
  // moves: the kOff suppression must expire after patience runs out and the
  // (huge) split gain takes over.
  LpObservation obs = SplitGainObservation(pages_, /*current=*/30.0);
  obs.lar.carrefour_pct = 70.0;
  obs.lar.carrefour_split_pct = 95.0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    EXPECT_FALSE(lp.Step(obs).split_pages_flag) << "epoch " << epoch;
  }
  // 4th epoch: the promise has sat undelivered past its patience — it
  // expires and the split gain engages the mode.
  EXPECT_TRUE(lp.Step(obs).split_pages_flag);
  EXPECT_GE(lp.stats().expired_mig_promises, 1u);
}

TEST_F(LpModelTest, DeliveredMigrationPromiseKeepsSuppressingSplits) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.mig_gain_patience_epochs = 3;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  // The measured LAR climbs toward the promise: the suppression re-anchors
  // and never expires.
  for (int epoch = 0; epoch < 10; ++epoch) {
    LpObservation obs = SplitGainObservation(pages_, 30.0 + 8.0 * epoch);
    obs.lar.carrefour_pct = obs.lar.current_pct + 40.0;
    obs.lar.carrefour_split_pct = 99.0;
    EXPECT_FALSE(lp.Step(obs).split_pages_flag) << "epoch " << epoch;
  }
  EXPECT_EQ(lp.stats().expired_mig_promises, 0u);
}

TEST_F(LpModelTest, FailedSplitExperimentRollsBackAndCoolsDown) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.split_patience_epochs = 2;
  config_.lp_model.failed_split_cooldown_epochs = 5;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  // Split gain promises 65 points; the measured LAR never moves (the SSCA
  // mis-estimation). After the review the mode rolls back...
  ASSERT_TRUE(lp.Step(SplitGainObservation(pages_)).split_pages_flag);
  lp.Step(SplitGainObservation(pages_));
  lp.Step(SplitGainObservation(pages_));
  EXPECT_FALSE(lp.split_pages_flag());
  EXPECT_EQ(lp.stats().failed_engagements, 1u);
  // ...and the same undelivered signal cannot re-engage during the cooldown.
  for (int epoch = 0; epoch < 4; ++epoch) {
    EXPECT_FALSE(lp.Step(SplitGainObservation(pages_)).split_pages_flag);
  }
  // Cooldown over: the signal is allowed another experiment.
  EXPECT_TRUE(lp.Step(SplitGainObservation(pages_)).split_pages_flag);
}

TEST_F(LpModelTest, DeliveringSplitExperimentStaysEngaged) {
  config_.lp_model.split_on_epochs = 1;
  config_.lp_model.split_patience_epochs = 3;
  CarrefourLp lp = MakeLp();
  pages_[0] = SharedLargePage(40, 4);
  // LAR rises 6 points per epoch while engaged: every review passes.
  for (int epoch = 0; epoch < 9; ++epoch) {
    const LpDecision decision = lp.Step(SplitGainObservation(pages_, 30.0 + 6.0 * epoch));
    EXPECT_TRUE(decision.split_pages_flag) << "epoch " << epoch;
  }
  EXPECT_EQ(lp.stats().failed_engagements, 0u);
}

// --- Hot-page discrimination -----------------------------------------------

TEST_F(LpModelTest, WidelySharedHotPageInterleavesNarrowOneLocalizes) {
  CarrefourLp lp = MakeLp();
  PageAgg wide = SharedLargePage(90, 16);
  wide.req_node_counts[0] = 23;
  wide.req_node_counts[1] = 23;
  wide.req_node_counts[2] = 22;
  wide.req_node_counts[3] = 22;
  pages_[0] = wide;                           // hot from every node
  pages_[kBytes2M] = SharedLargePage(80, 2);  // hot but two-sharer
  LpObservation obs = SplitGainObservation(pages_, 40.0);
  obs.lar.carrefour_pct = 41.0;
  obs.lar.carrefour_split_pct = 43.0;  // no split-mode engagement
  const LpDecision decision = lp.Step(obs);
  ASSERT_EQ(decision.split_hot.size(), 1u);
  EXPECT_EQ(decision.split_hot[0].first, 0u);  // interleaved
  ASSERT_EQ(decision.split_shared.size(), 1u);
  EXPECT_EQ(decision.split_shared[0].first, kBytes2M);  // localized
}

// --- Windowed vs serial bit-identity across the new knobs -----------------

TEST(LpModelEngineIdentityTest, WindowedAndSerialAgreeAcrossModelKnobs) {
  const Topology topo = Topology::MachineA();
  // Each variant toggles one model component off — the ablation axes — plus
  // the full model and the literal Algorithm 1.
  std::vector<LpModelConfig> variants(5);
  variants[1].hysteresis = false;
  variants[2].repromotion = false;
  variants[3].cost_budget = false;
  variants[4] = LpModelConfig::Algorithm1();

  for (std::size_t v = 0; v < variants.size(); ++v) {
    SimConfig sim;
    sim.accesses_per_thread_per_epoch = 1024;
    sim.max_epochs = 25;
    WorkloadSpec spec = MakeWorkloadSpec(BenchmarkId::kUA_B, topo);
    spec.steady_accesses_per_thread = 16'000;
    PolicyConfig policy = MakePolicyConfig(PolicyKind::kCarrefourLp);
    policy.lp_model = variants[v];

    Simulation windowed(topo, spec, policy, sim);
    const RunResult windowed_result = windowed.Run();
    Simulation serial(topo, spec, policy, sim);
    ExpectIdenticalRuns(windowed_result, SerialEngine::Run(serial),
                        "variant " + std::to_string(v));
  }
}

}  // namespace
}  // namespace numalp
