// Deterministic fault injection for the simulated machine.
//
// A FaultPlan is seeded from the cell seed and drives three failure families
// the paper's policies implicitly assume away: 2MB/1GB allocation failures
// (driven by *real* buddy-allocator fragmentation — the frag profile pins
// single 4KB frames inside most 2MB-aligned chunks so huge-page allocations
// genuinely fail from buddy state, not from a coin flip), failed and partial
// page migrations, and transient node-pressure episodes that temporarily
// hoard a node's free memory. All draws happen at serial points of the epoch
// loop (never inside speculative shard slices), so a fault schedule is
// bit-identical at every --shards/--jobs setting (DESIGN.md Section 12). With profile off (the default) no FaultPlan is
// constructed and behavior is byte-identical to a fault-free build.
#ifndef NUMALP_SRC_CORE_FAULTS_H_
#define NUMALP_SRC_CORE_FAULTS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace numalp {

class PhysicalMemory;

// What kind of adversity the simulated machine is under.
//   off      - no faults (default; byte-identical to pre-fault builds)
//   frag     - long-lived buddy fragmentation: pinned frames break up a
//              third of the 2MB chunks, so order-9 contiguity is scarce —
//              large allocations fail organically under footprint pressure
//              and 2MB migrations (which need a contiguous run on the
//              target node) mostly fail
//   pressure - transient per-node memory-pressure episodes plus a low
//              background migration-failure rate
//   churn    - rotating fragmentation + high migration failure + partial
//              migration plans (the hostile-datacenter profile)
enum class FaultProfile : std::uint8_t {
  kOff = 0,
  kFrag = 1,
  kPressure = 2,
  kChurn = 3,
};

std::string_view NameOf(FaultProfile profile);

// Per-cell fault configuration: the profile alone, a one-word knob that
// fixes every rate (FaultPlan's constructor).
struct FaultConfig {
  FaultProfile profile = FaultProfile::kOff;

  bool enabled() const { return profile != FaultProfile::kOff; }
};

// Everything a fault run needs to explain itself on the ResultRow.
struct FaultCounters {
  std::uint64_t alloc_failures = 0;      // injected huge-page alloc failures
  std::uint64_t migration_failures = 0;  // injected per-page migration failures
  std::uint64_t split_failures = 0;      // injected demotion failures
  std::uint64_t truncated_plans = 0;     // migration plans cut short
  std::uint64_t pressure_epochs = 0;     // node-epochs spent under pressure
  std::uint64_t promote_backoffs = 0;    // windows armed for promotion backoff
};

// The deterministic fault schedule of one cell. Constructed only when the
// profile is not kOff; every consumer holds a nullable pointer and treats
// nullptr as "no faults".
class FaultPlan {
 public:
  FaultPlan(const FaultConfig& config, std::uint64_t seed);

  // Called once, right after physical memory exists and before the workload
  // touches anything: the frag/churn profiles pin one 4KB frame inside a
  // Bernoulli(pin rate) subset of every node's 2MB-aligned chunks, making
  // the buddy allocator genuinely unable to serve most order-9 requests.
  // Costs one frame per pinned chunk (~0.2% of memory).
  void Prepare(PhysicalMemory& phys);

  // Called at the top of every epoch, in serial order: starts/ends pressure
  // episodes (hoarding/releasing large blocks on a node), rotates pins under
  // churn, and ages promotion backoffs.
  void BeginEpoch(int epoch, PhysicalMemory& phys);

  // Injection points, each consulted at exactly one serial site. A true
  // return means "this operation fails now"; counters are bumped here so
  // callers only handle the degradation path.
  //
  // Before AllocOnNode(order >= 9). `order` is the requested buddy order:
  // 9 (2MB, the default — every pre-1GB call site) keeps the historical
  // rate; 18 (1GB) multiplies it — an order-18 reservation needs 512
  // contiguous 2MB runs, so any fragmentation pressure that occasionally
  // denies a 2MB block almost always denies a 1GB one. One Bernoulli draw
  // either way, so the schedule stays aligned across page sizes.
  bool FailLargeAlloc(int node, int order = 9);
  // Before each page move; `order` is the page's buddy order (0 = 4KB,
  // 9 = 2MB, 18 = 1GB), which selects the 4KB vs large-page failure rate;
  // 1GB moves fail more often still (target-node order-18 contiguity).
  bool FailMigration(int to_node, int order);
  bool FailSplit();  // before each 2MB demotion

  // Partial completion: how many of `planned` migrations this epoch's plan
  // is actually allowed to attempt. Returns `planned` unless the schedule
  // truncates it.
  std::size_t PlanBudget(std::size_t planned);

  // Promotion retry/backoff: a window whose 2MB allocation failed backs off
  // for a doubling number of epochs (4, 8, ... capped) before khugepaged or
  // the repromote path may try it again.
  void ArmPromoteBackoff(Addr window_base);
  bool InPromoteBackoff(Addr window_base) const;

  bool NodeUnderPressure(int node) const;

  const FaultCounters& counters() const { return counters_; }

 private:
  void EnsureNodes(int num_nodes);
  void RotatePins(PhysicalMemory& phys);

  FaultProfile profile_;
  Rng rng_;

  // The profile's rates (fractions, not percentages), set at construction.
  double pin_rate_ = 0.0;       // fraction of 2MB chunks pinned at Prepare
  double alloc_fail_p_ = 0.0;   // extra probabilistic huge-alloc failure
  double migrate_fail_p_ = 0.0; // per-page 4KB migration failure
  // Per-page 2MB+ migration failure: moving a large page needs an order-9
  // contiguous run on the target node, which fragmentation makes scarce, so
  // profiles set this well above the 4KB rate.
  double large_migrate_fail_p_ = 0.0;
  double pressure_enter_p_ = 0.0;  // per-node per-epoch episode entry
  double truncate_p_ = 0.0;     // per-epoch plan truncation
  bool churn_ = false;          // rotate pins while running

  // Per-node state (index = node id), sized on first contact with phys.
  std::vector<std::vector<Pfn>> pins_;    // pinned order-0 frames
  std::vector<std::vector<Pfn>> hoard_;   // order-9 blocks held by an episode
  std::vector<int> pressure_until_;       // epoch the episode ends (-1 = none)

  // window base -> epochs of backoff remaining, and the last armed length
  // (doubles on repeated failure).
  FlatMap<Addr, int> backoff_remaining_;
  FlatMap<Addr, int> backoff_len_;

  FaultCounters counters_;
};

}  // namespace numalp

#endif  // NUMALP_SRC_CORE_FAULTS_H_
