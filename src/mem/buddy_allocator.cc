#include "src/mem/buddy_allocator.h"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/common/log.h"

namespace numalp {

namespace {

[[noreturn]] void RejectBadBlock(const char* op, Pfn pfn, int order) {
  throw std::logic_error(std::string("BuddyAllocator::") + op + ": pfn " + std::to_string(pfn) +
                         " is not the head of an allocated order-" + std::to_string(order) +
                         " block");
}

}  // namespace

BuddyAllocator::BuddyAllocator(Pfn base_pfn, std::uint64_t num_frames)
    : base_pfn_(base_pfn), total_frames_(num_frames), heads_(num_frames, 0) {
  assert(IsAligned(base_pfn, 1ull << kMaxOrder));
  // Only whole blocks inside the range can be free, so order o needs
  // num_frames >> o bits.
  for (int o = 0; o <= kMaxOrder; ++o) {
    FreeArea& area = free_areas_[static_cast<std::size_t>(o)];
    const std::uint64_t words = ((num_frames >> o) + 63) / 64;
    area.bits.assign(words, 0);
    area.summary.assign((words + 63) / 64, 0);
  }
  // Greedily cover [base, base+num_frames) with maximal aligned free blocks.
  std::uint64_t cursor = 0;
  std::uint64_t remaining = num_frames;
  while (remaining > 0) {
    int order = kMaxOrder;
    while (order > 0 && ((cursor & ((1ull << order) - 1)) != 0 || (1ull << order) > remaining)) {
      --order;
    }
    PushFree(cursor, order);
    cursor += 1ull << order;
    remaining -= 1ull << order;
  }
  free_frames_ = num_frames;
}

void BuddyAllocator::PushFree(std::uint64_t index, int order) {
  FreeArea& area = free_areas_[static_cast<std::size_t>(order)];
  const std::uint64_t block = index >> order;
  area.bits[block >> 6] |= 1ull << (block & 63);
  area.summary[block >> 12] |= 1ull << ((block >> 6) & 63);
  ++area.count;
  heads_[index] = static_cast<std::uint8_t>(kHeadFree | order);
}

void BuddyAllocator::RemoveFree(std::uint64_t index, int order) {
  FreeArea& area = free_areas_[static_cast<std::size_t>(order)];
  const std::uint64_t block = index >> order;
  std::uint64_t& word = area.bits[block >> 6];
  word &= ~(1ull << (block & 63));
  if (word == 0) {
    area.summary[block >> 12] &= ~(1ull << ((block >> 6) & 63));
  }
  --area.count;
}

std::uint64_t BuddyAllocator::LowestFree(int order) const {
  const FreeArea& area = free_areas_[static_cast<std::size_t>(order)];
  std::size_t s = 0;
  while (area.summary[s] == 0) {
    ++s;
  }
  const std::uint64_t w = (s << 6) + static_cast<std::uint64_t>(std::countr_zero(area.summary[s]));
  const std::uint64_t block = (w << 6) + static_cast<std::uint64_t>(std::countr_zero(area.bits[w]));
  return block << order;
}

bool BuddyAllocator::IsAllocatedHead(std::uint64_t index, int order) const {
  return order >= 0 && order <= kMaxOrder && index < total_frames_ &&
         heads_[index] == (kHeadAllocated | order);
}

std::optional<Pfn> BuddyAllocator::Alloc(int order) {
  assert(order >= 0 && order <= kMaxOrder);
  // Find the smallest free order >= requested.
  int found = -1;
  for (int o = order; o <= kMaxOrder; ++o) {
    if (free_areas_[static_cast<std::size_t>(o)].count != 0) {
      found = o;
      break;
    }
  }
  if (found < 0) {
    ++alloc_failures_;
    return std::nullopt;
  }
  // The lowest set bit is the lowest-address block of that order.
  const std::uint64_t block = LowestFree(found);
  RemoveFree(block, found);
  // Split down to the requested order, returning the low half each time.
  for (int o = found; o > order; --o) {
    PushFree(block + (1ull << (o - 1)), o - 1);
  }
  heads_[block] = static_cast<std::uint8_t>(kHeadAllocated | order);
  free_frames_ -= 1ull << order;
  return base_pfn_ + block;
}

bool BuddyAllocator::AllocSpecific(Pfn pfn, int order) {
  assert(order >= 0 && order <= kMaxOrder);
  assert(((pfn - base_pfn_) & ((1ull << order) - 1)) == 0);
  const std::uint64_t target = pfn - base_pfn_;
  // Find the free ancestor block containing the target, smallest first.
  for (int o = order; o <= kMaxOrder; ++o) {
    const std::uint64_t ancestor = target & ~((1ull << o) - 1);
    if (ancestor >= total_frames_ || heads_[ancestor] != (kHeadFree | o)) {
      continue;
    }
    RemoveFree(ancestor, o);
    // Split down toward the target, freeing the half that doesn't contain it.
    std::uint64_t block = ancestor;
    for (int oo = o; oo > order; --oo) {
      const std::uint64_t upper_half = block + (1ull << (oo - 1));
      if (target >= upper_half) {
        PushFree(block, oo - 1);
        block = upper_half;
      } else {
        PushFree(upper_half, oo - 1);
      }
    }
    heads_[block] = static_cast<std::uint8_t>(kHeadAllocated | order);
    free_frames_ -= 1ull << order;
    return true;
  }
  ++alloc_failures_;
  return false;
}

void BuddyAllocator::Free(Pfn pfn, int order) {
  std::uint64_t block = pfn - base_pfn_;
  if (!IsAllocatedHead(block, order)) {
    RejectBadBlock("Free", pfn, order);
  }
  heads_[block] = 0;
  free_frames_ += 1ull << order;
  // Coalesce upward while the buddy heads a free block of the same order.
  int o = order;
  while (o < kMaxOrder) {
    const std::uint64_t buddy = block ^ (1ull << o);
    if (buddy >= total_frames_ || heads_[buddy] != (kHeadFree | o)) {
      break;
    }
    RemoveFree(buddy, o);
    heads_[buddy] = 0;
    block &= buddy;
    ++o;
  }
  PushFree(block, o);
}

void BuddyAllocator::SplitAllocated(Pfn pfn, int from_order, int to_order) {
  const std::uint64_t index = pfn - base_pfn_;
  if (to_order < 0 || to_order >= from_order || !IsAllocatedHead(index, from_order)) {
    RejectBadBlock("SplitAllocated", pfn, from_order);
  }
  const std::uint64_t step = 1ull << to_order;
  for (std::uint64_t p = index; p < index + (1ull << from_order); p += step) {
    heads_[p] = static_cast<std::uint8_t>(kHeadAllocated | to_order);
  }
}

bool BuddyAllocator::CanAlloc(int order) const {
  for (int o = order; o <= kMaxOrder; ++o) {
    if (free_areas_[static_cast<std::size_t>(o)].count != 0) {
      return true;
    }
  }
  return false;
}

bool BuddyAllocator::IsAllocated(Pfn pfn) const {
  // Blocks are aligned to their order, so a block covering pfn starts at pfn
  // aligned down to that order.
  const std::uint64_t index = pfn - base_pfn_;
  if (index >= total_frames_) {
    return false;
  }
  for (int o = 0; o <= kMaxOrder; ++o) {
    if (heads_[index & ~((1ull << o) - 1)] == (kHeadAllocated | o)) {
      return true;
    }
  }
  return false;
}

int BuddyAllocator::LargestFreeOrder() const {
  for (int o = kMaxOrder; o >= 0; --o) {
    if (free_areas_[static_cast<std::size_t>(o)].count != 0) {
      return o;
    }
  }
  return -1;
}

double BuddyAllocator::FragmentationIndex() const {
  if (free_frames_ == 0) {
    return 0.0;
  }
  const int largest = LargestFreeOrder();
  const double largest_frames = static_cast<double>(1ull << largest);
  return 1.0 - largest_frames / static_cast<double>(free_frames_);
}

bool BuddyAllocator::CheckInvariants() const {
  std::array<std::uint64_t, kMaxOrder + 1> free_heads{};
  std::uint64_t counted_free = 0;
  std::uint64_t index = 0;
  while (index < total_frames_) {
    const std::uint8_t head = heads_[index];
    const int order = head & kOrderMask;
    const int flags = head & ~kOrderMask;
    if (order > kMaxOrder || (flags != kHeadFree && flags != kHeadAllocated)) {
      return false;
    }
    const std::uint64_t size = 1ull << order;
    if ((index & (size - 1)) != 0 || index + size > total_frames_) {
      return false;
    }
    for (std::uint64_t i = index + 1; i < index + size; ++i) {
      if (heads_[i] != 0) {
        return false;
      }
    }
    const FreeArea& area = free_areas_[static_cast<std::size_t>(order)];
    const std::uint64_t block = index >> order;
    const bool bit = ((area.bits[block >> 6] >> (block & 63)) & 1) != 0;
    if (bit != (flags == kHeadFree)) {
      return false;
    }
    if (bit) {
      ++free_heads[static_cast<std::size_t>(order)];
      counted_free += size;
    }
    index += size;
  }
  if (counted_free != free_frames_) {
    return false;
  }
  // Every free head has its bit; no other bit may be set, and the summary
  // must mark exactly the non-empty words.
  for (int o = 0; o <= kMaxOrder; ++o) {
    const FreeArea& area = free_areas_[static_cast<std::size_t>(o)];
    std::uint64_t bits_set = 0;
    for (std::size_t w = 0; w < area.bits.size(); ++w) {
      bits_set += static_cast<std::uint64_t>(std::popcount(area.bits[w]));
      const bool marked = ((area.summary[w >> 6] >> (w & 63)) & 1) != 0;
      if (marked != (area.bits[w] != 0)) {
        return false;
      }
    }
    if (bits_set != area.count || area.count != free_heads[static_cast<std::size_t>(o)]) {
      return false;
    }
  }
  return true;
}

}  // namespace numalp
