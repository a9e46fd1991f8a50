// Binary buddy allocator over a contiguous physical frame range.
//
// This is the per-node page-frame allocator of the simulated OS. It supports
// orders 0 (4KB) through 18 (1GB), coalescing on free, and — crucial for
// Carrefour-LP — *splitting an allocated block in place*: when a 2MB page is
// demoted to 4KB pages, the physical block stays where it is but its
// bookkeeping becomes 512 order-0 allocations so the constituent frames can
// later be migrated and freed independently.
//
// Bookkeeping is flat, like the kernel it models (a `struct page` per frame
// plus a `free_area` per order): one head byte per frame and, per order, a
// bitmap of free blocks with a summary word level and a count. That is
// ~1.25 bytes per managed frame whatever the allocation pattern, instead of
// a heap node per block.
#ifndef NUMALP_SRC_MEM_BUDDY_ALLOCATOR_H_
#define NUMALP_SRC_MEM_BUDDY_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/units.h"

namespace numalp {

// Largest supported order: 2^18 frames * 4KB = 1GB.
inline constexpr int kMaxOrder = 18;

class BuddyAllocator {
 public:
  // Manages frames [base_pfn, base_pfn + num_frames). base_pfn must be
  // aligned to 2^kMaxOrder so buddy arithmetic works on global PFNs.
  BuddyAllocator(Pfn base_pfn, std::uint64_t num_frames);

  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;
  BuddyAllocator(BuddyAllocator&&) = default;
  BuddyAllocator& operator=(BuddyAllocator&&) = default;

  // Allocates 2^order contiguous frames; returns the first PFN, or nullopt
  // when no sufficiently large block is free. Lowest-address block is chosen
  // deterministically.
  std::optional<Pfn> Alloc(int order);

  // Allocates the specific block [pfn, pfn + 2^order), splitting whatever
  // free ancestor block contains it. Returns false when any part of it is
  // already allocated. Used by fault injection to pin frames at chosen
  // addresses so fragmentation is real buddy state, not a coin flip.
  bool AllocSpecific(Pfn pfn, int order);

  // Frees a block previously returned by Alloc (or produced by
  // SplitAllocated). Coalesces with free buddies. Throws std::logic_error,
  // changing nothing, when `pfn` is not the first frame of an allocated
  // block of exactly `order` (a double free, a wrong order, an interior
  // frame).
  void Free(Pfn pfn, int order);

  // Rewrites the bookkeeping of an allocated block of `from_order` at `pfn`
  // into 2^(from_order - to_order) allocated blocks of `to_order`. No frames
  // move; this models THP demotion (2MB -> 512 x 4KB). Throws
  // std::logic_error like Free on a bad block, or when `to_order` is not in
  // [0, from_order).
  void SplitAllocated(Pfn pfn, int from_order, int to_order);

  // True if a block of at least `order` is free (used by the THP fault path
  // to decide whether a 2MB allocation is possible without fallback).
  bool CanAlloc(int order) const;

  bool IsAllocated(Pfn pfn) const;

  std::uint64_t free_frames() const { return free_frames_; }
  std::uint64_t total_frames() const { return total_frames_; }
  Pfn base_pfn() const { return base_pfn_; }
  Pfn end_pfn() const { return base_pfn_ + total_frames_; }

  // -1 when nothing is free.
  int LargestFreeOrder() const;

  // Fragmentation telemetry for fault-run explainability: free blocks of one
  // order, and how many Alloc calls have failed over the allocator's life.
  std::uint64_t FreeBlocksOfOrder(int order) const {
    return free_areas_[static_cast<std::size_t>(order)].count;
  }
  std::uint64_t alloc_failures() const { return alloc_failures_; }

  // 0 = one maximal free block; ->1 as free memory shatters into small
  // blocks. Defined as 1 - largest_free_block_frames / free_frames.
  double FragmentationIndex() const;

  // Internal-consistency check used by the property tests: the head bytes
  // tile the range with aligned blocks, the free ones add up to
  // free_frames(), and every order's bitmap, summary and count agree with
  // the free heads.
  bool CheckInvariants() const;

 private:
  // heads_[i] describes frame base_pfn_ + i: 0 when it is not the first
  // frame of a block, else the block's order plus one of these flags.
  static constexpr std::uint8_t kHeadAllocated = 0x40;
  static constexpr std::uint8_t kHeadFree = 0x80;
  static constexpr std::uint8_t kOrderMask = 0x1f;

  // The free blocks of one order. Bit b of `bits` is set when the block of
  // index b (frames [b << order, (b + 1) << order) of the range) is free;
  // bit w of `summary` is set when bits[w] != 0.
  struct FreeArea {
    std::vector<std::uint64_t> bits;
    std::vector<std::uint64_t> summary;
    std::uint64_t count = 0;
  };

  // Marks the block at frame index `index` free at `order` (head byte, bit).
  void PushFree(std::uint64_t index, int order);
  // Clears the block's free bit; the caller rewrites its head byte.
  void RemoveFree(std::uint64_t index, int order);
  // Frame index of the lowest-address free block of `order` (count > 0).
  std::uint64_t LowestFree(int order) const;
  bool IsAllocatedHead(std::uint64_t index, int order) const;

  Pfn base_pfn_;
  std::uint64_t total_frames_;
  std::uint64_t free_frames_ = 0;
  std::uint64_t alloc_failures_ = 0;
  std::vector<std::uint8_t> heads_;
  std::array<FreeArea, kMaxOrder + 1> free_areas_;
};

}  // namespace numalp

#endif  // NUMALP_SRC_MEM_BUDDY_ALLOCATOR_H_
