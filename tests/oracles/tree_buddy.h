// Test oracle for numalp::BuddyAllocator: the seed's node-based allocator,
// kept verbatim as a standalone header-only class with BuddyAllocator's
// public surface. It keeps one std::set of free block heads per order and
// one std::map entry per allocated block; begin() of the smallest non-empty
// order is the lowest-address block, which is what the production
// allocator's lowest-set-bit scan over its per-order bitmaps must return.
// BuddyDifferentialTest (tests/mem_test.cc) drives the two through one
// seeded operation stream and holds every return value and counter equal.
#ifndef NUMALP_TESTS_ORACLES_TREE_BUDDY_H_
#define NUMALP_TESTS_ORACLES_TREE_BUDDY_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/common/units.h"
#include "src/mem/buddy_allocator.h"

namespace numalp {

class TreeBuddyAllocator {
 public:
  TreeBuddyAllocator(Pfn base_pfn, std::uint64_t num_frames)
      : base_pfn_(base_pfn), total_frames_(num_frames), free_lists_(kMaxOrder + 1) {
    assert(IsAligned(base_pfn, 1ull << kMaxOrder));
    // Greedily cover [base, base+num_frames) with maximal aligned free blocks.
    Pfn cursor = base_pfn_;
    std::uint64_t remaining = num_frames;
    while (remaining > 0) {
      int order = kMaxOrder;
      while (order > 0 && (((cursor - base_pfn_) & ((1ull << order) - 1)) != 0 ||
                           (1ull << order) > remaining)) {
        --order;
      }
      free_lists_[static_cast<std::size_t>(order)].insert(cursor);
      cursor += 1ull << order;
      remaining -= 1ull << order;
    }
    free_frames_ = num_frames;
  }

  std::optional<Pfn> Alloc(int order) {
    assert(order >= 0 && order <= kMaxOrder);
    // Find the smallest free order >= requested.
    int found = -1;
    for (int o = order; o <= kMaxOrder; ++o) {
      if (!free_lists_[static_cast<std::size_t>(o)].empty()) {
        found = o;
        break;
      }
    }
    if (found < 0) {
      ++alloc_failures_;
      return std::nullopt;
    }
    auto& list = free_lists_[static_cast<std::size_t>(found)];
    const Pfn block = *list.begin();
    list.erase(list.begin());
    // Split down to the requested order, returning the low half each time.
    for (int o = found; o > order; --o) {
      const Pfn upper_half = block + (1ull << (o - 1));
      free_lists_[static_cast<std::size_t>(o - 1)].insert(upper_half);
    }
    allocated_[block] = order;
    free_frames_ -= 1ull << order;
    return block;
  }

  bool AllocSpecific(Pfn pfn, int order) {
    assert(order >= 0 && order <= kMaxOrder);
    assert(((pfn - base_pfn_) & ((1ull << order) - 1)) == 0);
    // Find the free ancestor block containing the target, smallest first.
    for (int o = order; o <= kMaxOrder; ++o) {
      const Pfn ancestor = ((pfn - base_pfn_) & ~((1ull << o) - 1)) + base_pfn_;
      auto& list = free_lists_[static_cast<std::size_t>(o)];
      const auto it = list.find(ancestor);
      if (it == list.end()) {
        continue;
      }
      list.erase(it);
      // Split down toward the target, freeing the half that doesn't contain it.
      Pfn block = ancestor;
      for (int oo = o; oo > order; --oo) {
        const Pfn upper_half = block + (1ull << (oo - 1));
        if (pfn >= upper_half) {
          free_lists_[static_cast<std::size_t>(oo - 1)].insert(block);
          block = upper_half;
        } else {
          free_lists_[static_cast<std::size_t>(oo - 1)].insert(upper_half);
        }
      }
      allocated_[block] = order;
      free_frames_ -= 1ull << order;
      return true;
    }
    ++alloc_failures_;
    return false;
  }

  void Free(Pfn pfn, int order) {
    const auto it = allocated_.find(pfn);
    assert(it != allocated_.end() && it->second == order);
    allocated_.erase(it);
    free_frames_ += 1ull << order;
    // Coalesce upward while the buddy is free.
    Pfn block = pfn;
    int o = order;
    while (o < kMaxOrder) {
      const Pfn buddy = BuddyOf(block, o);
      auto& list = free_lists_[static_cast<std::size_t>(o)];
      const auto buddy_it = list.find(buddy);
      if (buddy_it == list.end()) {
        break;
      }
      list.erase(buddy_it);
      block = block < buddy ? block : buddy;
      ++o;
    }
    free_lists_[static_cast<std::size_t>(o)].insert(block);
  }

  void SplitAllocated(Pfn pfn, int from_order, int to_order) {
    assert(to_order < from_order);
    const auto it = allocated_.find(pfn);
    assert(it != allocated_.end() && it->second == from_order);
    allocated_.erase(it);
    const std::uint64_t step = 1ull << to_order;
    for (Pfn p = pfn; p < pfn + (1ull << from_order); p += step) {
      allocated_[p] = to_order;
    }
  }

  bool CanAlloc(int order) const {
    for (int o = order; o <= kMaxOrder; ++o) {
      if (!free_lists_[static_cast<std::size_t>(o)].empty()) {
        return true;
      }
    }
    return false;
  }

  bool IsAllocated(Pfn pfn) const {
    // Exact block starts only; constituent frames of a larger block are
    // covered by searching the predecessor entry.
    auto it = allocated_.upper_bound(pfn);
    if (it == allocated_.begin()) {
      return false;
    }
    --it;
    return pfn < it->first + (1ull << it->second);
  }

  std::uint64_t free_frames() const { return free_frames_; }
  std::uint64_t total_frames() const { return total_frames_; }
  Pfn base_pfn() const { return base_pfn_; }
  Pfn end_pfn() const { return base_pfn_ + total_frames_; }

  int LargestFreeOrder() const {
    for (int o = kMaxOrder; o >= 0; --o) {
      if (!free_lists_[static_cast<std::size_t>(o)].empty()) {
        return o;
      }
    }
    return -1;
  }

  std::uint64_t FreeBlocksOfOrder(int order) const {
    return free_lists_[static_cast<std::size_t>(order)].size();
  }
  std::uint64_t alloc_failures() const { return alloc_failures_; }

  double FragmentationIndex() const {
    if (free_frames_ == 0) {
      return 0.0;
    }
    const int largest = LargestFreeOrder();
    const double largest_frames = static_cast<double>(1ull << largest);
    return 1.0 - largest_frames / static_cast<double>(free_frames_);
  }

  bool CheckInvariants() const {
    std::uint64_t counted_free = 0;
    for (int o = 0; o <= kMaxOrder; ++o) {
      for (Pfn pfn : free_lists_[static_cast<std::size_t>(o)]) {
        if (pfn < base_pfn_ || pfn + (1ull << o) > end_pfn()) {
          return false;
        }
        if (((pfn - base_pfn_) & ((1ull << o) - 1)) != 0) {
          return false;
        }
        if (IsAllocated(pfn)) {
          return false;
        }
        counted_free += 1ull << o;
      }
    }
    std::uint64_t counted_alloc = 0;
    for (const auto& [pfn, order] : allocated_) {
      counted_alloc += 1ull << order;
    }
    return counted_free == free_frames_ && counted_free + counted_alloc == total_frames_;
  }

 private:
  Pfn BuddyOf(Pfn pfn, int order) const {
    return ((pfn - base_pfn_) ^ (1ull << order)) + base_pfn_;
  }

  Pfn base_pfn_;
  std::uint64_t total_frames_;
  std::uint64_t free_frames_ = 0;
  std::uint64_t alloc_failures_ = 0;
  // Free blocks per order, keyed by first PFN (ordered: deterministic,
  // lowest-address-first allocation like Linux's free lists).
  std::vector<std::set<Pfn>> free_lists_;
  // Allocated blocks: first PFN -> order. Kept for validation and splits.
  std::map<Pfn, int> allocated_;
};

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLES_TREE_BUDDY_H_
