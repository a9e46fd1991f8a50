#include "src/core/faults.h"

#include <algorithm>
#include <optional>

#include "src/mem/phys_mem.h"

namespace numalp {

namespace {

// Frame pinned inside a fragmented 2MB chunk: offset 256 (the chunk's
// midpoint) so neither half of the order-9 block can coalesce.
constexpr std::uint64_t kPinOffset = kFramesPer2M / 2;

// Backoff schedule for failed promotions: 4 epochs, doubling to a cap.
constexpr int kBackoffBaseEpochs = 4;
constexpr int kBackoffCapEpochs = 32;

// Pressure episodes hoard order-9 blocks; bounded so an episode stresses a
// node without starving the workload outright.
constexpr int kHoardOrder = 9;  // 2MB blocks
constexpr int kOrder1G = 18;    // order of a 1GB page
constexpr std::size_t kHoardMaxBlocks = 128;
constexpr int kPressureMinEpochs = 3;
constexpr std::uint64_t kPressureExtraEpochs = 8;

// Churn rotates pins every period: some pins release, a few new chunks
// get broken.
constexpr int kChurnPeriodEpochs = 16;
constexpr double kChurnReleaseP = 0.25;
constexpr int kChurnNewPinsPerNode = 4;

}  // namespace

std::string_view NameOf(FaultProfile profile) {
  switch (profile) {
    case FaultProfile::kOff:
      return "off";
    case FaultProfile::kFrag:
      return "frag";
    case FaultProfile::kPressure:
      return "pressure";
    case FaultProfile::kChurn:
      return "churn";
  }
  return "?";
}

FaultPlan::FaultPlan(const FaultConfig& config, std::uint64_t seed)
    : profile_(config.profile), rng_(seed ^ 0xFA17ull) {
  // The profile's rates; a rate left unset stays 0.
  switch (profile_) {
    case FaultProfile::kOff:
      break;
    case FaultProfile::kFrag:
      // Pin enough chunks that order-9 contiguity is scarce without being
      // absent: huge pages still allocate while free memory lasts, but the
      // contiguity a 2MB migration needs on its target node mostly isn't
      // there (large_migrate_fail_p_), and allocation storms start failing
      // organically once the unpinned chunks run out.
      pin_rate_ = 0.35;
      migrate_fail_p_ = 0.05;
      large_migrate_fail_p_ = 0.70;
      truncate_p_ = 0.10;
      break;
    case FaultProfile::kPressure:
      alloc_fail_p_ = 0.02;
      migrate_fail_p_ = 0.02;
      large_migrate_fail_p_ = 0.10;
      pressure_enter_p_ = 0.05;
      truncate_p_ = 0.15;
      break;
    case FaultProfile::kChurn:
      pin_rate_ = 0.50;
      churn_ = true;
      alloc_fail_p_ = 0.05;
      migrate_fail_p_ = 0.10;
      large_migrate_fail_p_ = 0.60;
      truncate_p_ = 0.25;
      break;
  }
}

void FaultPlan::EnsureNodes(int num_nodes) {
  const auto n = static_cast<std::size_t>(num_nodes);
  if (pins_.size() < n) {
    pins_.resize(n);
    hoard_.resize(n);
    pressure_until_.resize(n, -1);
  }
}

void FaultPlan::Prepare(PhysicalMemory& phys) {
  EnsureNodes(phys.num_nodes());
  if (pin_rate_ <= 0.0) {
    return;
  }
  for (int node = 0; node < phys.num_nodes(); ++node) {
    BuddyAllocator& alloc = phys.mutable_node_allocator(node);
    const Pfn base = alloc.base_pfn();
    const std::uint64_t chunks = alloc.total_frames() / kFramesPer2M;
    for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
      if (!rng_.Bernoulli(pin_rate_)) {
        continue;
      }
      const Pfn pin = base + chunk * kFramesPer2M + kPinOffset;
      if (alloc.AllocSpecific(pin, 0)) {
        pins_[static_cast<std::size_t>(node)].push_back(pin);
      }
    }
  }
}

void FaultPlan::RotatePins(PhysicalMemory& phys) {
  for (int node = 0; node < phys.num_nodes(); ++node) {
    BuddyAllocator& alloc = phys.mutable_node_allocator(node);
    std::vector<Pfn>& pins = pins_[static_cast<std::size_t>(node)];
    std::vector<Pfn> kept;
    kept.reserve(pins.size());
    for (const Pfn pin : pins) {
      if (rng_.Bernoulli(kChurnReleaseP)) {
        alloc.Free(pin, 0);
      } else {
        kept.push_back(pin);
      }
    }
    pins = std::move(kept);
    const std::uint64_t chunks = alloc.total_frames() / kFramesPer2M;
    for (int i = 0; i < kChurnNewPinsPerNode && chunks > 0; ++i) {
      const std::uint64_t chunk = rng_.Uniform(chunks);
      const Pfn pin = alloc.base_pfn() + chunk * kFramesPer2M + kPinOffset;
      if (alloc.AllocSpecific(pin, 0)) {
        pins.push_back(pin);
      }
    }
  }
}

void FaultPlan::BeginEpoch(int epoch, PhysicalMemory& phys) {
  EnsureNodes(phys.num_nodes());

  // Age promotion backoffs (iteration order is FlatMap insertion order —
  // deterministic and stdlib-independent).
  std::vector<Addr> expired;
  for (auto& item : backoff_remaining_) {
    if (--item.second <= 0) {
      expired.push_back(item.first);
    }
  }
  for (const Addr base : expired) {
    backoff_remaining_.Erase(base);
  }

  if (churn_ && epoch > 0 && epoch % kChurnPeriodEpochs == 0) {
    RotatePins(phys);
  }

  for (int node = 0; node < phys.num_nodes(); ++node) {
    const auto n = static_cast<std::size_t>(node);
    // End an episode whose time is up: release the hoard.
    if (pressure_until_[n] >= 0 && epoch >= pressure_until_[n]) {
      BuddyAllocator& alloc = phys.mutable_node_allocator(node);
      for (const Pfn pfn : hoard_[n]) {
        alloc.Free(pfn, kHoardOrder);
      }
      hoard_[n].clear();
      pressure_until_[n] = -1;
    }
    // Maybe start one: hoard up to a quarter of the node's free memory in
    // 2MB blocks, so huge allocations and migrations toward this node fail
    // from real allocator state for a few epochs.
    if (pressure_until_[n] < 0 && pressure_enter_p_ > 0.0 &&
        rng_.Bernoulli(pressure_enter_p_)) {
      BuddyAllocator& alloc = phys.mutable_node_allocator(node);
      const std::uint64_t budget_frames = alloc.free_frames() / 4;
      std::size_t max_blocks = static_cast<std::size_t>(
          budget_frames >> kHoardOrder);
      max_blocks = std::min(max_blocks, kHoardMaxBlocks);
      for (std::size_t i = 0; i < max_blocks; ++i) {
        const std::optional<Pfn> pfn = alloc.Alloc(kHoardOrder);
        if (!pfn) {
          break;
        }
        hoard_[n].push_back(*pfn);
      }
      if (!hoard_[n].empty()) {
        pressure_until_[n] =
            epoch + kPressureMinEpochs +
            static_cast<int>(rng_.Uniform(kPressureExtraEpochs));
      }
    }
    if (pressure_until_[n] >= 0) {
      ++counters_.pressure_epochs;
    }
  }
}

bool FaultPlan::NodeUnderPressure(int node) const {
  const auto n = static_cast<std::size_t>(node);
  return n < pressure_until_.size() && pressure_until_[n] >= 0;
}

bool FaultPlan::FailLargeAlloc(int node, int order) {
  double p = alloc_fail_p_;
  if (order >= kOrder1G) {
    // Order-18 contiguity is categorically scarcer than order-9: scale the
    // background rate (plain multiply — no libm, identical on every
    // toolchain) and cap it. The order-9 path is bit-for-bit the
    // pre-1GB-awareness code.
    p = std::min(1.0, p * 8.0);
  }
  if (NodeUnderPressure(node)) {
    p += order >= kOrder1G ? 0.85 : 0.50;
  }
  if (rng_.Bernoulli(p)) {
    ++counters_.alloc_failures;
    return true;
  }
  return false;
}

bool FaultPlan::FailMigration(int to_node, int order) {
  double p = order >= kHoardOrder ? large_migrate_fail_p_ : migrate_fail_p_;
  if (order >= kOrder1G) {
    // A 1GB move needs an order-18 run on the target node on top of the
    // 2MB-class failure modes.
    p = std::min(1.0, p + 0.25);
  }
  if (NodeUnderPressure(to_node)) {
    p += 0.35;
  }
  if (rng_.Bernoulli(p)) {
    ++counters_.migration_failures;
    return true;
  }
  return false;
}

bool FaultPlan::FailSplit() {
  // Demotion only fails under fragmentation-style profiles (the split's
  // page-table allocation failing); modeled with a small fixed rate.
  const double p = (profile_ == FaultProfile::kFrag || churn_) ? 0.02 : 0.0;
  if (rng_.Bernoulli(p)) {
    ++counters_.split_failures;
    return true;
  }
  return false;
}

std::size_t FaultPlan::PlanBudget(std::size_t planned) {
  if (planned == 0 || truncate_p_ <= 0.0 || !rng_.Bernoulli(truncate_p_)) {
    return planned;
  }
  ++counters_.truncated_plans;
  // Keep at least one migration so truncation models partial completion,
  // not silent plan loss.
  return 1 + static_cast<std::size_t>(rng_.Uniform(planned));
}

void FaultPlan::ArmPromoteBackoff(Addr window_base) {
  int& len = backoff_len_[window_base];
  len = len == 0 ? kBackoffBaseEpochs : std::min(len * 2, kBackoffCapEpochs);
  backoff_remaining_[window_base] = len;
  ++counters_.promote_backoffs;
}

bool FaultPlan::InPromoteBackoff(Addr window_base) const {
  return backoff_remaining_.Contains(window_base);
}

}  // namespace numalp
