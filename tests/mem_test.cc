#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/buddy_allocator.h"
#include "src/mem/phys_mem.h"
#include "src/topo/topology.h"
#include "tests/oracles/tree_buddy.h"

namespace numalp {
namespace {

TEST(BuddyTest, AllocFreeRoundtrip) {
  BuddyAllocator buddy(0, 1024);
  const auto pfn = buddy.Alloc(0);
  ASSERT_TRUE(pfn.has_value());
  EXPECT_EQ(buddy.free_frames(), 1023u);
  buddy.Free(*pfn, 0);
  EXPECT_EQ(buddy.free_frames(), 1024u);
  EXPECT_TRUE(buddy.CheckInvariants());
}

TEST(BuddyTest, LowestAddressFirst) {
  BuddyAllocator buddy(0, 1024);
  EXPECT_EQ(*buddy.Alloc(0), 0u);
  EXPECT_EQ(*buddy.Alloc(0), 1u);
  EXPECT_EQ(*buddy.Alloc(0), 2u);
}

TEST(BuddyTest, CoalescesBackToFullBlock) {
  BuddyAllocator buddy(0, 1 << 10);
  std::vector<Pfn> pages;
  for (int i = 0; i < 1 << 10; ++i) {
    pages.push_back(*buddy.Alloc(0));
  }
  EXPECT_EQ(buddy.free_frames(), 0u);
  EXPECT_FALSE(buddy.Alloc(0).has_value());
  for (Pfn pfn : pages) {
    buddy.Free(pfn, 0);
  }
  EXPECT_EQ(buddy.LargestFreeOrder(), 10);
  EXPECT_TRUE(buddy.CheckInvariants());
}

TEST(BuddyTest, LargeOrderAllocation) {
  BuddyAllocator buddy(0, 1 << 18);
  const auto huge = buddy.Alloc(18);  // 1GB
  ASSERT_TRUE(huge.has_value());
  EXPECT_EQ(buddy.free_frames(), 0u);
  buddy.Free(*huge, 18);
  EXPECT_EQ(buddy.free_frames(), 1ull << 18);
}

TEST(BuddyTest, MixedOrdersDoNotOverlap) {
  BuddyAllocator buddy(0, 1 << 12);
  std::set<Pfn> seen;
  std::vector<std::pair<Pfn, int>> blocks;
  for (int order : {0, 3, 9, 0, 5, 9, 0}) {
    const auto pfn = buddy.Alloc(order);
    ASSERT_TRUE(pfn.has_value());
    for (Pfn p = *pfn; p < *pfn + (1ull << order); ++p) {
      EXPECT_TRUE(seen.insert(p).second) << "overlapping allocation at " << p;
    }
    blocks.emplace_back(*pfn, order);
  }
  for (const auto& [pfn, order] : blocks) {
    buddy.Free(pfn, order);
  }
  EXPECT_TRUE(buddy.CheckInvariants());
}

TEST(BuddyTest, SplitAllocatedAllowsPieceFrees) {
  BuddyAllocator buddy(0, 1 << 12);
  const Pfn block = *buddy.Alloc(9);  // 2MB
  buddy.SplitAllocated(block, 9, 0);
  // Free every other piece; the rest stay allocated.
  for (Pfn p = block; p < block + 512; p += 2) {
    buddy.Free(p, 0);
  }
  EXPECT_EQ(buddy.free_frames(), (1ull << 12) - 512 + 256);
  EXPECT_TRUE(buddy.CheckInvariants());
  for (Pfn p = block + 1; p < block + 512; p += 2) {
    buddy.Free(p, 0);
  }
  EXPECT_EQ(buddy.LargestFreeOrder(), 12);
}

TEST(BuddyTest, CanAllocReflectsFragmentation) {
  BuddyAllocator buddy(0, 1 << 10);
  EXPECT_TRUE(buddy.CanAlloc(10));
  const Pfn one = *buddy.Alloc(0);
  EXPECT_FALSE(buddy.CanAlloc(10));
  EXPECT_TRUE(buddy.CanAlloc(9));
  buddy.Free(one, 0);
  EXPECT_TRUE(buddy.CanAlloc(10));
}

TEST(BuddyTest, FragmentationIndex) {
  BuddyAllocator buddy(0, 1 << 10);
  EXPECT_DOUBLE_EQ(buddy.FragmentationIndex(), 0.0);
  // Allocate the whole range as 4K pages and free every other one: free
  // memory is maximally shattered.
  std::vector<Pfn> pages;
  for (int i = 0; i < 1 << 10; ++i) {
    pages.push_back(*buddy.Alloc(0));
  }
  for (std::size_t i = 0; i < pages.size(); i += 2) {
    buddy.Free(pages[i], 0);
  }
  EXPECT_GT(buddy.FragmentationIndex(), 0.99);
}

TEST(BuddyTest, IsAllocatedCoversInteriorFrames) {
  BuddyAllocator buddy(0, 1 << 12);
  const Pfn block = *buddy.Alloc(9);
  EXPECT_TRUE(buddy.IsAllocated(block));
  EXPECT_TRUE(buddy.IsAllocated(block + 17));
  EXPECT_FALSE(buddy.IsAllocated(block + 512));
}

TEST(BuddyTest, NonPowerOfTwoRange) {
  BuddyAllocator buddy(0, 1000);  // not a power of two
  EXPECT_EQ(buddy.free_frames(), 1000u);
  EXPECT_TRUE(buddy.CheckInvariants());
  std::vector<Pfn> all;
  while (auto pfn = buddy.Alloc(0)) {
    all.push_back(*pfn);
  }
  EXPECT_EQ(all.size(), 1000u);
  for (Pfn pfn : all) {
    buddy.Free(pfn, 0);
  }
  EXPECT_TRUE(buddy.CheckInvariants());
}

// Property test: random alloc/free sequences conserve frames and never break
// the allocator's internal invariants.
class BuddyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyPropertyTest, RandomOpsPreserveInvariants) {
  Rng rng(GetParam());
  BuddyAllocator buddy(0, 1 << 13);
  std::vector<std::pair<Pfn, int>> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const int order = static_cast<int>(rng.Uniform(10));
      if (auto pfn = buddy.Alloc(order)) {
        live.emplace_back(*pfn, order);
      }
    } else {
      const std::size_t index = rng.Uniform(live.size());
      auto [pfn, order] = live[index];
      live[index] = live.back();
      live.pop_back();
      if (order > 0 && rng.Bernoulli(0.2)) {
        // Sometimes split in place and free the pieces separately.
        buddy.SplitAllocated(pfn, order, 0);
        for (Pfn p = pfn; p < pfn + (1ull << order); ++p) {
          buddy.Free(p, 0);
        }
      } else {
        buddy.Free(pfn, order);
      }
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(buddy.CheckInvariants()) << "at step " << step;
    }
  }
  for (const auto& [pfn, order] : live) {
    buddy.Free(pfn, order);
  }
  EXPECT_TRUE(buddy.CheckInvariants());
  EXPECT_EQ(buddy.free_frames(), 1ull << 13);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest, ::testing::Values(1, 7, 42, 1234, 98765));

// A bad free or split is refused in every build type, not only under
// assert, and leaves the allocator as it was.
TEST(BuddyTest, DoubleFreeThrows) {
  BuddyAllocator buddy(0, 1024);
  const Pfn pfn = *buddy.Alloc(0);
  const Pfn other = *buddy.Alloc(0);
  buddy.Free(pfn, 0);
  EXPECT_THROW(buddy.Free(pfn, 0), std::logic_error);
  EXPECT_EQ(buddy.free_frames(), 1023u);
  EXPECT_TRUE(buddy.CheckInvariants());
  buddy.Free(other, 0);
  EXPECT_THROW(buddy.Free(other, 0), std::logic_error);
  EXPECT_EQ(buddy.free_frames(), 1024u);
  EXPECT_EQ(buddy.LargestFreeOrder(), 10);
  EXPECT_TRUE(buddy.CheckInvariants());
}

TEST(BuddyTest, FreeWithTheWrongOrderThrows) {
  BuddyAllocator buddy(0, 1024);
  const Pfn pfn = *buddy.Alloc(3);
  EXPECT_THROW(buddy.Free(pfn, 2), std::logic_error);
  EXPECT_THROW(buddy.Free(pfn, 4), std::logic_error);
  EXPECT_THROW(buddy.SplitAllocated(pfn, 4, 0), std::logic_error);
  EXPECT_THROW(buddy.SplitAllocated(pfn, 3, 3), std::logic_error);
  EXPECT_EQ(buddy.free_frames(), 1016u);
  EXPECT_TRUE(buddy.IsAllocated(pfn + 7));
  EXPECT_TRUE(buddy.CheckInvariants());
  buddy.Free(pfn, 3);
  EXPECT_EQ(buddy.free_frames(), 1024u);
}

TEST(BuddyTest, FreeOfAnInteriorFrameThrows) {
  BuddyAllocator buddy(0, 1 << 12);
  const Pfn block = *buddy.Alloc(9);
  EXPECT_THROW(buddy.Free(block + 1, 0), std::logic_error);
  EXPECT_THROW(buddy.Free(block + 256, 8), std::logic_error);
  EXPECT_THROW(buddy.SplitAllocated(block + 8, 3, 0), std::logic_error);
  buddy.SplitAllocated(block, 9, 3);
  EXPECT_THROW(buddy.Free(block + 1, 0), std::logic_error);
  EXPECT_EQ(buddy.free_frames(), (1u << 12) - 512);
  EXPECT_TRUE(buddy.CheckInvariants());
  for (Pfn p = block; p < block + 512; p += 8) {
    buddy.Free(p, 3);
  }
  EXPECT_EQ(buddy.LargestFreeOrder(), 12);
  EXPECT_TRUE(buddy.CheckInvariants());
}

// Differential test: the flat allocator against the seed's tree allocator
// (tests/oracles/tree_buddy.h), driven through one seeded stream of
// allocations (failures included), pinned allocations (refusals included),
// frees, and in-place splits freed piece by piece. After every operation the
// two must agree on the result and on every counter the simulator reads.
struct BuddyRange {
  Pfn base;
  std::uint64_t frames;
};

std::string CompareBuddies(const BuddyAllocator& flat, const TreeBuddyAllocator& tree,
                           const std::vector<Pfn>& probes) {
  std::ostringstream diff;
  if (flat.free_frames() != tree.free_frames()) {
    diff << " free_frames " << flat.free_frames() << " vs " << tree.free_frames();
  }
  if (flat.alloc_failures() != tree.alloc_failures()) {
    diff << " alloc_failures " << flat.alloc_failures() << " vs " << tree.alloc_failures();
  }
  for (int o = 0; o <= kMaxOrder; ++o) {
    if (flat.FreeBlocksOfOrder(o) != tree.FreeBlocksOfOrder(o)) {
      diff << " FreeBlocksOfOrder(" << o << ") " << flat.FreeBlocksOfOrder(o) << " vs "
           << tree.FreeBlocksOfOrder(o);
    }
  }
  if (flat.LargestFreeOrder() != tree.LargestFreeOrder()) {
    diff << " LargestFreeOrder " << flat.LargestFreeOrder() << " vs " << tree.LargestFreeOrder();
  }
  for (const Pfn pfn : probes) {
    if (flat.IsAllocated(pfn) != tree.IsAllocated(pfn)) {
      diff << " IsAllocated(" << pfn << ") " << flat.IsAllocated(pfn) << " vs "
           << tree.IsAllocated(pfn);
    }
  }
  return diff.str();
}

TEST(BuddyDifferentialTest, MatchesTheTreeOracle) {
  const std::vector<BuddyRange> ranges = {
      {0, 1 << 12},                            // a power of two
      {0, 3000},                               // not a power of two
      {1ull << kMaxOrder, 1ull << kMaxOrder},  // base_pfn != 0; order 18 fits
      {3ull << kMaxOrder, 5000},               // base_pfn != 0, not a power of two
  };
  for (const BuddyRange& range : ranges) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE("base " + std::to_string(range.base) + " frames " +
                   std::to_string(range.frames) + " seed " + std::to_string(seed));
      Rng rng(seed);
      BuddyAllocator flat(range.base, range.frames);
      TreeBuddyAllocator tree(range.base, range.frames);
      std::vector<std::pair<Pfn, int>> live;
      const auto random_order = [&] {
        return static_cast<int>(rng.Bernoulli(0.7) ? rng.Uniform(4) : rng.Uniform(kMaxOrder + 1));
      };
      // Probes the frame an operation touched, the first frame past the
      // range, and six random frames.
      const auto compare = [&](Pfn pfn) {
        std::vector<Pfn> probes = {pfn, range.base + range.frames};
        for (int i = 0; i < 6; ++i) {
          probes.push_back(range.base + rng.Uniform(range.frames));
        }
        return CompareBuddies(flat, tree, probes);
      };
      for (int step = 0; step < 3000; ++step) {
        const double pick = rng.NextDouble();
        const char* op = nullptr;
        Pfn at = range.base;
        if (live.empty() || pick < 0.35) {
          op = "Alloc";
          const int order = random_order();
          const std::optional<Pfn> a = flat.Alloc(order);
          const std::optional<Pfn> b = tree.Alloc(order);
          ASSERT_EQ(a, b) << "step " << step << " Alloc(" << order << ")";
          if (a) {
            live.emplace_back(*a, order);
            at = *a;
          }
        } else if (pick < 0.55) {
          op = "AllocSpecific";
          const int order = random_order();
          at = range.base + (rng.Uniform(range.frames) & ~((1ull << order) - 1));
          const bool a = flat.AllocSpecific(at, order);
          ASSERT_EQ(a, tree.AllocSpecific(at, order))
              << "step " << step << " AllocSpecific(" << at << ", " << order << ")";
          if (a) {
            live.emplace_back(at, order);
          }
        } else {
          const std::size_t index = rng.Uniform(live.size());
          const auto [pfn, order] = live[index];
          live[index] = live.back();
          live.pop_back();
          at = pfn;
          if (order > 0 && pick > 0.85) {
            op = "SplitAllocated";
            const int to_order = static_cast<int>(rng.Uniform(static_cast<std::uint64_t>(order)));
            flat.SplitAllocated(pfn, order, to_order);
            tree.SplitAllocated(pfn, order, to_order);
            // Free about half the pieces now, one at a time; keep the rest.
            for (Pfn p = pfn; p < pfn + (1ull << order); p += 1ull << to_order) {
              if (rng.Bernoulli(0.5)) {
                live.emplace_back(p, to_order);
                continue;
              }
              flat.Free(p, to_order);
              tree.Free(p, to_order);
              const std::string diff = compare(p);
              ASSERT_EQ(diff, "") << "step " << step << " piecewise Free(" << p << ", "
                                  << to_order << ")";
            }
          } else {
            op = "Free";
            flat.Free(pfn, order);
            tree.Free(pfn, order);
          }
        }
        const std::string diff = compare(at);
        ASSERT_EQ(diff, "") << "step " << step << " " << op << " at " << at;
        if (step % 500 == 0) {
          ASSERT_TRUE(flat.CheckInvariants()) << "at step " << step;
        }
      }
      for (const auto& [pfn, order] : live) {
        flat.Free(pfn, order);
        tree.Free(pfn, order);
      }
      EXPECT_EQ(CompareBuddies(flat, tree, {}), "");
      EXPECT_EQ(flat.free_frames(), range.frames);
      EXPECT_TRUE(flat.CheckInvariants());
      EXPECT_TRUE(tree.CheckInvariants());
    }
  }
}

TEST(PhysMemTest, NodeOfPfnPartition) {
  const Topology topo = Topology::MachineA();
  PhysicalMemory phys(topo);
  for (int node = 0; node < topo.num_nodes(); ++node) {
    const auto pfn = phys.AllocOnNode(0, node);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(phys.NodeOfPfn(*pfn), node);
  }
}

TEST(PhysMemTest, PreferredNodeHonored) {
  PhysicalMemory phys(Topology::Tiny());
  const auto alloc = phys.Alloc(0, 1);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->node, 1);
  EXPECT_FALSE(alloc->fallback);
}

TEST(PhysMemTest, FallbackWhenPreferredFull) {
  PhysicalMemory phys(Topology::Tiny(4 * kMiB));  // 1024 frames per node
  // Exhaust node 0.
  while (phys.AllocOnNode(0, 0).has_value()) {
  }
  const auto alloc = phys.Alloc(0, 0);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->node, 1);
  EXPECT_TRUE(alloc->fallback);
}

TEST(PhysMemTest, StrictAllocFailsWhenNodeFull) {
  PhysicalMemory phys(Topology::Tiny(4 * kMiB));
  while (phys.AllocOnNode(0, 0).has_value()) {
  }
  EXPECT_FALSE(phys.AllocOnNode(0, 0).has_value());
  EXPECT_TRUE(phys.AllocOnNode(0, 1).has_value());
}

TEST(PhysMemTest, FreeBytesAccounting) {
  PhysicalMemory phys(Topology::Tiny(4 * kMiB));
  const std::uint64_t initial = phys.FreeBytesOnNode(0);
  const auto pfn = phys.AllocOnNode(9, 0);
  ASSERT_TRUE(pfn.has_value());
  EXPECT_EQ(phys.FreeBytesOnNode(0), initial - kBytes2M);
  phys.Free(*pfn, 9);
  EXPECT_EQ(phys.FreeBytesOnNode(0), initial);
}

TEST(PhysMemTest, FallbackPrefersCloserNodesOnMachineB) {
  const Topology topo = Topology::MachineB();
  PhysicalMemory phys(topo);
  // Exhaust node 0 at order 0 by allocating everything.
  while (phys.AllocOnNode(0, 0).has_value()) {
  }
  const auto alloc = phys.Alloc(0, 0);
  ASSERT_TRUE(alloc.has_value());
  // The fallback node must be one hop away from node 0 (nodes 1, 2 or 4).
  EXPECT_EQ(topo.Hops(0, alloc->node), 1);
}

}  // namespace
}  // namespace numalp
