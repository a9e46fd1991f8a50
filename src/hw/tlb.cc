#include "src/hw/tlb.h"

#include <stdexcept>
#include <string>

namespace numalp {

void Tlb::Array::Init(int s, int w) {
  sets = s;
  ways = w;
  pow2_sets = s > 0 && (static_cast<unsigned>(s) & (static_cast<unsigned>(s) - 1)) == 0;
  set_mask = pow2_sets ? static_cast<std::uint64_t>(s) - 1 : 0;
  const std::size_t n = static_cast<std::size_t>(s) * static_cast<std::size_t>(w);
  tags.assign(n, kInvalidTag);
  payloads.assign(n, Payload{});
  live = 0;
  live_parity[0] = live_parity[1] = 0;
  // Signature: the byte of the tag just above the set-index bits, so tags
  // that collide into one set (equal low bits) still get distinct digests
  // for nearby pages. Non-pow2 set counts fall back to the low byte.
  sig_shift = 0;
  if (pow2_sets) {
    int bits = 0;
    while ((1 << bits) < s) {
      ++bits;
    }
    sig_shift = bits;
  }
  way_hi_bits = kHiBits >> (8 * (8 - w));
  sig.assign(static_cast<std::size_t>(s), 0);
  occ.assign(static_cast<std::size_t>(s), 0);
  // Ranks start as the identity permutation; bytes past `ways` keep ranks
  // >= ways forever and never interfere with the word-parallel updates.
  lru.assign(static_cast<std::size_t>(s), 0x0706050403020100ull);
}

void Tlb::Array::Flush() {
  for (auto& tag : tags) {
    tag = kInvalidTag;
  }
  for (auto& mask : occ) {
    mask = 0;
  }
  live = 0;
  live_parity[0] = live_parity[1] = 0;
}

Tlb::Tlb(const TlbConfig& config) {
  const auto init = [](Array& array, const char* name, int sets, int ways) {
    if (ways < 1 || ways > 8 || sets < 1) {
      throw std::invalid_argument(std::string("TlbConfig: ") + name + " needs 1..8 ways and " +
                                  "at least one set (got " + std::to_string(sets) + " sets x " +
                                  std::to_string(ways) + " ways)");
    }
    array.Init(sets, ways);
  };
  init(l1_4k_, "l1_4k", config.l1_4k_sets, config.l1_4k_ways);
  init(l1_2m_, "l1_2m", config.l1_2m_sets, config.l1_2m_ways);
  init(l1_1g_, "l1_1g", config.l1_1g_sets, config.l1_1g_ways);
  init(l2_, "l2", config.l2_sets, config.l2_ways);
}

void Tlb::InvalidatePage(Addr page_base, PageSize size) {
  const auto clear = [](Array& array, std::uint64_t tag, std::uint64_t set_index) {
    const std::size_t at = array.Find(tag, set_index);
    if (at == kNoEntry) {
      return;
    }
    array.tags[at] = kInvalidTag;
    --array.live;
    --array.live_parity[tag & 1];
    const std::size_t w = at - set_index * static_cast<std::size_t>(array.ways);
    array.occ[set_index] = static_cast<std::uint8_t>(array.occ[set_index] & ~(1u << w));
  };
  switch (size) {
    case PageSize::k4K: {
      const std::uint64_t vpn = page_base >> kShift4K;
      clear(l1_4k_, vpn, l1_4k_.SetIndex(vpn));
      clear(l2_, (vpn << 1) | 0, l2_.SetIndex(vpn));
      break;
    }
    case PageSize::k2M: {
      const std::uint64_t vpn = page_base >> kShift2M;
      clear(l1_2m_, vpn, l1_2m_.SetIndex(vpn));
      clear(l2_, (vpn << 1) | 1, l2_.SetIndex(vpn));
      break;
    }
    case PageSize::k1G: {
      const std::uint64_t vpn = page_base >> kShift1G;
      clear(l1_1g_, vpn, l1_1g_.SetIndex(vpn));
      break;
    }
  }
}

void Tlb::InvalidateRange(Addr base, std::uint64_t bytes) {
  const Addr end = base + bytes;
  // Clears entry (set, w) of `array`, maintaining every live-entry summary.
  const auto drop = [](Array& array, std::size_t set, std::size_t w, std::uint64_t tag) {
    array.tags[set * static_cast<std::size_t>(array.ways) + w] = kInvalidTag;
    --array.live;
    --array.live_parity[tag & 1];
    array.occ[set] = static_cast<std::uint8_t>(array.occ[set] & ~(1u << w));
  };
  const auto sweep = [&](Array& array, int va_shift) {
    if (array.live == 0) {
      return;
    }
    const std::size_t ways = static_cast<std::size_t>(array.ways);
    for (std::size_t set = 0; set < static_cast<std::size_t>(array.sets); ++set) {
      for (std::size_t w = 0; w < ways; ++w) {
        const std::uint64_t tag = array.tags[set * ways + w];
        if (tag == kInvalidTag) {
          continue;
        }
        const Addr va = tag << va_shift;
        const std::uint64_t span = 1ull << va_shift;
        if (va < end && va + span > base) {
          drop(array, set, w, tag);
        }
      }
    }
  };
  sweep(l1_4k_, kShift4K);
  sweep(l1_2m_, kShift2M);
  sweep(l1_1g_, kShift1G);
  // The unified L2 packs the page size into tag bit 0.
  if (l2_.live != 0) {
    const std::size_t ways = static_cast<std::size_t>(l2_.ways);
    for (std::size_t set = 0; set < static_cast<std::size_t>(l2_.sets); ++set) {
      for (std::size_t w = 0; w < ways; ++w) {
        const std::uint64_t tag = l2_.tags[set * ways + w];
        if (tag == kInvalidTag) {
          continue;
        }
        const int va_shift = (tag & 1) != 0 ? kShift2M : kShift4K;
        const Addr va = (tag >> 1) << va_shift;
        const std::uint64_t span = 1ull << va_shift;
        if (va < end && va + span > base) {
          drop(l2_, set, w, tag);
        }
      }
    }
  }
}

void Tlb::FlushAll() {
  l1_4k_.Flush();
  l1_2m_.Flush();
  l1_1g_.Flush();
  l2_.Flush();
}

}  // namespace numalp
