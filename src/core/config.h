// Simulation and policy configuration for an experiment run.
#ifndef NUMALP_SRC_CORE_CONFIG_H_
#define NUMALP_SRC_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/carrefour/carrefour.h"
#include "src/core/faults.h"
#include "src/hw/interconnect.h"
#include "src/hw/mem_ctrl.h"
#include "src/hw/tlb.h"
#include "src/hw/walker.h"

namespace numalp {

// Cycle costs of the simulated machine and OS (2GHz reference clock).
struct CostModel {
  Cycles cpu_per_access = 3;  // pipeline + cache-hit cost of one access
  Cycles tlb_l2_hit = 7;

  // Page faults: fixed kernel-entry/locking cost (subject to contention on
  // the page-table lock, Boyd-Wickizer et al. [3]) plus page zeroing.
  Cycles fault_fixed = 3500;
  double fault_zero_per_byte = 0.25;
  double fault_contention_slope = 0.05;  // per additional concurrently-faulting core
  double fault_contention_max = 4.0;

  // Policy mechanics (charged to the epoch's wall time as kernel overhead).
  Cycles migrate_fixed = 3000;
  double migrate_per_byte = 0.12;
  // Policy-driven page migrations (the Carrefour plan, post-split piece
  // placement/interleave, and the epoch's NUMA hinting-fault backlog) are
  // executed by the per-node kernel workers as batched page lists — one
  // list setup and one shootdown IPI broadcast per batch (migrate_pages +
  // mmu_gather semantics), not one syscall-priced operation per page. The
  // fixed and shootdown charges divide across a batch of this many pages;
  // the copied bytes always accrue per page. Ad-hoc single-page operations
  // (splits, promotions) keep their full per-op charges.
  std::uint64_t migrate_batch_pages = 16;
  // Split-time piece placement (DESIGN.md Section 8.4) trusts a piece's
  // window majority once it rests on at least this many samples; pieces
  // below the bar keep hinting-fault (next-toucher) placement. Even a
  // single sample is a recorded toucher — exactly the evidence a hinting
  // fault would act on, minus the fault — so the default trusts it;
  // raising the bar shifts work back to the hinting path.
  std::uint64_t split_place_min_samples = 1;
  Cycles split_fixed = 2500;
  Cycles promote_fixed = 4000;
  double promote_per_byte = 0.12;
  Cycles shootdown_per_op = 3000;
  Cycles per_ibs_sample = 300;  // interrupt + processing, on the sampling core
  Cycles policy_fixed_per_epoch = 10'000;
  // Calibration of kernel page-work wall charges. A simulated epoch stands
  // for one second (~2e9 cycles) but simulates ~1e6 cycles of accesses, while
  // sampled page counts shrink far less, so naive charging overstates
  // relative overhead; this divisor recovers the paper's measured 1-4%
  // Carrefour overhead (Section 4.2).
  double kernel_time_scale = 4.0;
};

struct SimConfig {
  std::uint64_t seed = 42;
  std::uint64_t accesses_per_thread_per_epoch = 4096;
  int max_epochs = 600;
  std::uint64_t ibs_interval = 128;  // one sample per N accesses per core
  double clock_ghz = 2.0;           // converts cycles to wall time in reports
  // khugepaged budget per epoch. The paper polls every 10ms (~100 scans per
  // 1s epoch) but Linux's scanner consolidates only a handful of windows per
  // wake; promotion is deliberately slow, which also bounds the
  // split/promote oscillation the paper discusses in Section 4.3.
  int promote_scan_windows = 256;
  int promote_max_per_epoch = 1;
  // Intra-cell worker threads for the sharded epoch engine (DESIGN.md
  // Section 10): the epoch's access rounds execute as speculative windows
  // over per-core shard contexts, committed only when provably equal to the
  // serial interleaving. Results are bit-identical at any value; only host
  // wall-clock changes. <= 1 runs the windows on the calling thread. The
  // effective count is clamped to the host budget (hardware concurrency
  // divided by active ExperimentRunner jobs) so grid parallelism and shard
  // parallelism cannot multiply into oversubscription.
  int shards = 1;
  // Bypass the oversubscription clamp and spawn exactly `shards` workers —
  // for scaling measurements and the determinism tests, which must exercise
  // real cross-thread windows even on small or busy hosts.
  bool shards_force = false;
  // Deterministic fault injection (DESIGN.md Section 12; --fault-profile
  // and the --fault-*-pct rate overrides). Off by default: no FaultPlan is
  // constructed and runs are byte-identical to fault-free builds.
  FaultConfig faults;

  TlbConfig tlb;
  WalkerConfig walker;
  MemCtrlConfig mem_ctrl;
  InterconnectConfig interconnect;
  CostModel costs;
};

// The six system configurations evaluated in the paper (Figures 1-5).
enum class PolicyKind : std::uint8_t {
  kLinux4K,           // default Linux, 4KB pages
  kThp,               // Linux with transparent huge pages
  kCarrefour2M,       // THP + Carrefour, no large-page awareness
  kReactiveOnly,      // THP + Carrefour + reactive splitting component
  kConservativeOnly,  // 4KB start + Carrefour + conservative enabling component
  kCarrefourLp,       // the full system (Algorithm 1)
};

std::string_view NameOf(PolicyKind kind);

// Cost/decision model of the redesigned reactive component (DESIGN.md
// Section 8). Each feature switches off independently so
// the ablation_lp_model bench can attribute the fidelity fix to its parts;
// with all three off the component degrades to the original Algorithm 1
// transcription (threshold-only, sticky split flag, flat demotion cap).
struct LpModelConfig {
  // Hysteresis on the split-mode state machine: the split-gain condition must
  // persist for `split_on_epochs` before demotion engages, and must stay
  // absent for `split_off_epochs` before the mode disengages — one noisy
  // epoch of over-predicted split LAR no longer triggers mass demotion.
  bool hysteresis = true;
  int split_on_epochs = 3;
  int split_off_epochs = 5;
  // Realized-gain accounting on the migration-gain exit (Algorithm 1 line
  // 10): a "Carrefour alone will gain >15 points" prediction suppresses
  // splitting only while it is credible. If the promise persists this many
  // epochs without the measured LAR actually improving, it expires — the
  // estimate is a sparse-sampling artifact (the same mis-estimation the
  // paper reports for SSCA) — and the split condition is evaluated instead.
  int mig_gain_patience_epochs = 4;
  // Realized-gain accounting on the split side: engagement is an experiment.
  // Until confirmed, the measured LAR must improve by at least
  // `min_realized_split_gain_pct` points within `split_patience_epochs` of
  // engaging (checked every epoch — confirmation fires as soon as the gain
  // shows), or the mode disengages (re-promoting what it demoted) and
  // re-engagement is suppressed for `failed_split_cooldown_epochs` — the
  // SSCA case, where the estimator promises 59% and delivers 25% (Section
  // 4.1), stops burning split work on a promise that measurably does not
  // materialize. A *confirmed* engagement already delivered; its later
  // reviews only require the gain be retained (LAR not fall more than the
  // same margin below the confirmed level) — LAR saturates at the
  // workload's locality ceiling, so demanding a fresh gain every review
  // would mislabel a real, held recovery as a failed experiment.
  int split_patience_epochs = 8;
  double min_realized_split_gain_pct = 5.0;
  int failed_split_cooldown_epochs = 50;
  // Re-promotion: 2MB windows the reactive component demoted return to large
  // pages once the mode disengages (the transient that justified splitting
  // has subsided), instead of thrashing at 4KB for the rest of the run.
  bool repromotion = true;
  int repromote_max_per_epoch = 16;
  // Cost-aware engagement and demotion budget: split mode engages only when
  // the predicted LAR-gain cycles beat the predicted post-split 4KB-thrash
  // cycles (see PredictedThrashCyclesPerEpoch), and each epoch's demotions
  // are bounded by a cycle budget priced by that same model — measured
  // walk cost and epoch wall time, not a flat page count.
  bool cost_budget = true;
  // Demotion rate: splits per epoch are bounded by a fraction of the epoch's
  // app wall cycles, priced at split_op_cycles each. The rate is staged by
  // realized gain (DESIGN.md Section 8.4): an engagement demotes at the
  // probation fraction until its first review measures the promised LAR
  // actually arriving — a mis-estimated experiment (SSCA) is rolled back
  // having spent little — after which the confirmed fraction drains the
  // remaining shared set in a handful of epochs, because with the
  // relocation work batch-priced (migrate_batch_pages) a compressed
  // transient is strictly cheaper than stretching low-locality epochs
  // across the run, which is what a flat 2% drip did to UA.B.
  double demotion_budget_frac = 0.02;           // probation (unconfirmed)
  double demotion_budget_confirmed_frac = 0.10; // after a passed review
  double split_payback_epochs = 10.0;  // amortization horizon for one-time split cost
  // Known bias of the what-if split estimator: with realistic sampling most
  // 4KB sub-pages carry 0-1 samples, so the post-split LAR prediction runs
  // high (the paper measures a 34-point error on SSCA, Section 4.1). The
  // benefit side of the veto discounts the predicted gain by this margin —
  // marginal split promises (LU's 10-point mirage) die here, massive ones
  // (UA's 60-point false-sharing recovery) survive.
  double split_estimate_margin_pct = 12.0;
  // P(TLB miss) assumed for a demoted page's accesses: 512 4KB entries
  // replacing one 2MB entry overwhelm the 4KB arrays for any page hot
  // enough to be a demotion candidate.
  double post_split_tlb_miss_rate = 0.5;
  // Hot-page interleave-vs-localize discrimination: a hot page whose
  // sampled 4KB pieces are each dominated by one node (piece locality at or
  // above this percentage) is a false-sharing window — split it and place
  // pieces with their users — while contested pieces mark a true hot page
  // whose pieces must interleave. CG's hammered chunks score near
  // 100/num_nodes; UA's mesh windows score near its ~93% slice locality.
  double hot_localize_piece_majority_pct = 60.0;

  // The un-redesigned reactive component, for ablation and for the unit
  // tests that pin the paper's literal Algorithm 1 semantics.
  static LpModelConfig Algorithm1() {
    LpModelConfig model;
    model.hysteresis = false;
    model.repromotion = false;
    model.cost_budget = false;
    return model;
  }
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kLinux4K;
  bool initial_thp_alloc = false;
  bool initial_thp_promote = false;
  bool use_carrefour = false;
  bool use_reactive = false;
  bool use_conservative = false;
  CarrefourConfig carrefour;
  // Carrefour-LP thresholds (Algorithm 1).
  double walk_miss_threshold = 0.05;       // line 4
  double fault_time_threshold = 0.05;      // line 7
  double lar_gain_carrefour_pct = 15.0;    // line 10
  double lar_gain_split_pct = 5.0;         // line 12
  double hot_page_share_pct = 6.0;         // line 19 (Section 3.1 footnote)
  // Demotion rate limit when the cost-aware budget is disabled: splitting is
  // a heavyweight operation under the page table lock (Section 4.3 mentions
  // the scalability concern), so shared pages are demoted in bounded batches
  // per iteration.
  int max_shared_splits_per_epoch = 32;
  // The reactive component's cost/decision model.
  LpModelConfig lp_model;
};

PolicyConfig MakePolicyConfig(PolicyKind kind);

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_CONFIG_H_
