// Two-level set-associative TLB with separate L1 arrays per page size and a
// unified L2, modelled after the AMD family 10h/15h designs in the paper's
// testbeds. Entries carry the translation payload (PFN + home node) so the
// simulation engine can resolve a hit without touching the page table.
//
// Host-side layout: tags and payloads live in separate parallel arrays
// (structure-of-arrays), and set selection uses power-of-two masking when the
// configuration allows (all shipped configs do). On top of that each array
// keeps two per-set summary words (DESIGN.md Section 9):
//
//  * a signature word — one byte per way, an 8-bit digest of the way's tag —
//    so a probe compares every way of a set in one word-parallel (SWAR)
//    sweep: XOR against the replicated probe signature, zero-byte detect,
//    then verify the (usually unique) candidate against the full tag. The
//    full tags stay authoritative; signatures only prune.
//  * an LRU word — one byte per way holding the way's recency rank
//    (0 = MRU … ways-1 = LRU), a permutation maintained word-parallel on
//    every touch — plus an occupancy bitmask, so victim selection is O(1):
//    lowest empty way when one exists, else the unique rank-(ways-1) way.
//
// Both are value-identical to the seed's scalar probe loop and timestamp-
// scan LRU: the rank permutation orders ways exactly as per-entry touch
// timestamps would (touch ticks are distinct within an array, so the
// timestamp minimum is unique and equals the rank maximum), and the
// occupancy mask reproduces the first-empty-way scan. Ranks are bounded, so
// no tick counter exists to wrap. The seed algorithms live on as a test
// oracle (tests/oracles/scalar_tlb.h); tests/perf_structures_test.cc and
// tests/hw_test.cc churn this TLB against it and hold lookups, evictions
// and the live-entry bookkeeping identical.
#ifndef NUMALP_SRC_HW_TLB_H_
#define NUMALP_SRC_HW_TLB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace numalp {

struct TlbConfig {
  // 64-entry L1 DTLB for 4KB pages (16 sets x 4 ways).
  int l1_4k_sets = 16;
  int l1_4k_ways = 4;
  // 32-entry L1 for 2MB pages.
  int l1_2m_sets = 8;
  int l1_2m_ways = 4;
  // 8-entry fully-associative array for 1GB pages.
  int l1_1g_sets = 1;
  int l1_1g_ways = 8;
  // 1024-entry unified L2 (4KB + 2MB; 1GB entries are not L2-cached,
  // matching the era's hardware).
  int l2_sets = 128;
  int l2_ways = 8;
};

enum class TlbHitLevel : std::uint8_t { kL1, kL2, kMiss };

struct TlbLookup {
  TlbHitLevel level = TlbHitLevel::kMiss;
  Pfn pfn = 0;       // valid when level != kMiss
  int node = 0;      // home NUMA node of the page
  PageSize size = PageSize::k4K;
};

// Live-entry bookkeeping snapshot (tests pin it against the oracle's).
struct TlbOccupancy {
  std::uint64_t live_4k = 0;
  std::uint64_t live_2m = 0;
  std::uint64_t live_1g = 0;
  std::uint64_t l2_parity_4k = 0;
  std::uint64_t l2_parity_2m = 0;

  bool operator==(const TlbOccupancy&) const = default;
};

class Tlb {
 public:
  // Throws std::invalid_argument unless every array has 1..8 ways (the
  // summary words hold one byte per way) and at least one set.
  explicit Tlb(const TlbConfig& config);

  // Probes all arrays in parallel (4KB / 2MB / 1GB VPNs).
  TlbLookup Lookup(Addr va);

  // Installs a translation in L1 (and L2 for 4KB/2MB).
  void Insert(Addr va, PageSize size, Pfn pfn, int node);

  // Precise shootdown of one page's translation (all arrays that could hold
  // it). This is what an OS TLB shootdown IPI does; flushing everything on
  // every policy action would overcharge policies by a full refill storm.
  void InvalidatePage(Addr page_base, PageSize size);

  // Ranged shootdown: drops every cached translation (any page size, both
  // levels) whose page overlaps [base, base + bytes). Equivalent to — and
  // far cheaper than — looping InvalidatePage over each constituent page:
  // one pass over the arrays instead of per-page probes. Batches the 512
  // stale 4KB invalidations a 2MB promotion broadcasts, and the piece-wise
  // storms after a hot-page split.
  void InvalidateRange(Addr base, std::uint64_t bytes);

  void FlushAll();

  std::uint64_t lookups() const { return lookups_; }

  TlbOccupancy DebugOccupancy() const {
    return TlbOccupancy{l1_4k_.live, l1_2m_.live, l1_1g_.live, l2_.live_parity[0],
                        l2_.live_parity[1]};
  }

 private:
  static constexpr std::uint64_t kInvalidTag = ~0ull;
  static constexpr std::size_t kNoEntry = ~static_cast<std::size_t>(0);
  static constexpr std::uint64_t kLoBytes = 0x0101010101010101ull;
  static constexpr std::uint64_t kHiBits = 0x8080808080808080ull;

  struct Payload {
    Pfn pfn = 0;
    std::uint32_t node = 0;
  };

  struct Array {
    int sets = 0;
    int ways = 0;
    // Set selection: hardware-style power-of-two masking when `sets` allows
    // it (every shipped TlbConfig does), falling back to modulo. The two are
    // value-identical for power-of-two set counts; the mask form keeps an
    // integer division out of the per-access probe loop.
    std::uint64_t set_mask = 0;
    bool pow2_sets = false;
    int sig_shift = 0;             // signature = byte of (tag >> sig_shift)
    std::uint64_t way_hi_bits = 0; // kHiBits restricted to the first `ways` bytes
    std::vector<std::uint64_t> tags;       // sets * ways, kInvalidTag = empty
    std::vector<Payload> payloads;         // parallel to tags
    std::vector<std::uint64_t> sig;        // per-set signature word
    std::vector<std::uint64_t> lru;        // per-set rank word
    std::vector<std::uint8_t> occ;         // per-set occupancy mask
    // Occupancy tracking: an array (or, for the unified L2, a tag-parity
    // class — bit 0 encodes the page size) with no live entries cannot hit,
    // so Lookup skips the probe entirely. Workloads touch one page size
    // almost exclusively, making half the probe work vanish.
    std::uint64_t live = 0;
    std::uint64_t live_parity[2] = {0, 0};

    void Init(int s, int w);
    std::uint64_t SetIndex(std::uint64_t value) const {
      return pow2_sets ? (value & set_mask) : value % static_cast<std::uint64_t>(sets);
    }

    std::uint8_t Sig(std::uint64_t tag) const {
      return static_cast<std::uint8_t>(tag >> sig_shift);
    }

    // --- SWAR probe and rank LRU --------------------------------------------
    // Bytes of `word` equal to `byte`, as a mask of their high bits (may
    // carry false positives directly above a true match — candidates are
    // verified against the full tags — but never false negatives).
    static std::uint64_t ByteEqMask(std::uint64_t word, std::uint8_t byte) {
      const std::uint64_t x = word ^ (kLoBytes * byte);
      return (x - kLoBytes) & ~x & kHiBits;
    }
    std::size_t Find(std::uint64_t tag, std::uint64_t set_index) const {
      std::uint64_t cand = ByteEqMask(sig[set_index], Sig(tag)) & way_hi_bits;
      const std::size_t base = set_index * static_cast<std::size_t>(ways);
      while (cand != 0) {
        const std::size_t w = static_cast<std::size_t>(__builtin_ctzll(cand)) >> 3;
        if (tags[base + w] == tag) {
          return base + w;
        }
        cand &= cand - 1;
      }
      return kNoEntry;
    }
    // Promotes way `w` to MRU: ranks below the way's current rank shift up
    // by one, word-parallel. Bytes past `ways` hold ranks >= ways forever
    // (they start there and can never be below a valid rank), so the update
    // never disturbs them.
    void TouchRank(std::uint64_t set_index, std::size_t w) {
      std::uint64_t word = lru[set_index];
      const std::uint64_t r = (word >> (8 * w)) & 0xFF;
      if (r == 0) {
        return;  // already MRU (the common repeated-hit case)
      }
      // Per-byte unsigned b < r (all ranks < 0x80): 0x80 + b - r keeps its
      // high bit exactly when b >= r, with no cross-byte borrow.
      const std::uint64_t lt = ~((word | kHiBits) - kLoBytes * r) & kHiBits;
      word += lt >> 7;
      word &= ~(0xFFull << (8 * w));
      lru[set_index] = word;
    }
    void Install(std::uint64_t tag, std::uint64_t set_index, Pfn pfn, int node);

    void Flush();
  };

  Array l1_4k_;
  Array l1_2m_;
  Array l1_1g_;
  Array l2_;  // tag includes the page size
  std::uint64_t lookups_ = 0;
};


// Hot-path definitions (one Lookup per simulated access; inlined into the
// engine's access loop — behavior identical to the out-of-line form).
inline void Tlb::Array::Install(std::uint64_t tag, std::uint64_t set_index, Pfn pfn,
                                int node) {
  const std::uint8_t full = static_cast<std::uint8_t>((1u << ways) - 1);
  const std::uint8_t valid = occ[set_index];
  std::size_t w;
  if (valid != full) {
    // The seed's victim scan picks the lowest-index empty way; so does this.
    w = static_cast<std::size_t>(
        __builtin_ctz(static_cast<unsigned>(~valid & full)));
    occ[set_index] = static_cast<std::uint8_t>(valid | (1u << w));
    ++live;
  } else {
    // Full set: evict the unique rank-(ways-1) way — the seed's timestamp
    // minimum (touch ticks are distinct, so the minimum is unique and
    // recency rank order equals timestamp order).
    const std::uint64_t at_lru =
        ByteEqMask(lru[set_index], static_cast<std::uint8_t>(ways - 1)) & way_hi_bits;
    w = static_cast<std::size_t>(__builtin_ctzll(at_lru)) >> 3;
    --live_parity[tags[set_index * static_cast<std::size_t>(ways) + w] & 1];
  }
  ++live_parity[tag & 1];
  const std::size_t at = set_index * static_cast<std::size_t>(ways) + w;
  tags[at] = tag;
  payloads[at].pfn = pfn;
  payloads[at].node = static_cast<std::uint32_t>(node);
  const std::uint64_t byte_shift = 8 * w;
  sig[set_index] =
      (sig[set_index] & ~(0xFFull << byte_shift)) |
      (static_cast<std::uint64_t>(Sig(tag)) << byte_shift);
  TouchRank(set_index, w);
}

inline TlbLookup Tlb::Lookup(Addr va) {
  ++lookups_;
  const std::uint64_t vpn4k = va >> kShift4K;
  const std::uint64_t vpn2m = va >> kShift2M;
  const std::uint64_t vpn1g = va >> kShift1G;

  if (l1_4k_.live != 0) {
    const std::uint64_t set = l1_4k_.SetIndex(vpn4k);
    if (std::size_t at = l1_4k_.Find(vpn4k, set); at != kNoEntry) {
      Payload& p = l1_4k_.payloads[at];
      l1_4k_.TouchRank(set, at - set * static_cast<std::size_t>(l1_4k_.ways));
      return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k4K};
    }
  }
  if (l1_2m_.live != 0) {
    const std::uint64_t set = l1_2m_.SetIndex(vpn2m);
    if (std::size_t at = l1_2m_.Find(vpn2m, set); at != kNoEntry) {
      Payload& p = l1_2m_.payloads[at];
      l1_2m_.TouchRank(set, at - set * static_cast<std::size_t>(l1_2m_.ways));
      return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k2M};
    }
  }
  if (l1_1g_.live != 0) {
    const std::uint64_t set = l1_1g_.SetIndex(vpn1g);
    if (std::size_t at = l1_1g_.Find(vpn1g, set); at != kNoEntry) {
      Payload& p = l1_1g_.payloads[at];
      l1_1g_.TouchRank(set, at - set * static_cast<std::size_t>(l1_1g_.ways));
      return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k1G};
    }
  }
  // Unified L2: tags disambiguate page size.
  const std::uint64_t l2_tag_4k = (vpn4k << 1) | 0;
  const std::uint64_t l2_tag_2m = (vpn2m << 1) | 1;
  if (l2_.live_parity[0] != 0) {
    const std::uint64_t set = l2_.SetIndex(vpn4k);
    if (std::size_t at = l2_.Find(l2_tag_4k, set); at != kNoEntry) {
      Payload& p = l2_.payloads[at];
      l2_.TouchRank(set, at - set * static_cast<std::size_t>(l2_.ways));
      l1_4k_.Install(vpn4k, l1_4k_.SetIndex(vpn4k), p.pfn, static_cast<int>(p.node));
      return TlbLookup{TlbHitLevel::kL2, p.pfn, static_cast<int>(p.node), PageSize::k4K};
    }
  }
  if (l2_.live_parity[1] != 0) {
    const std::uint64_t set = l2_.SetIndex(vpn2m);
    if (std::size_t at = l2_.Find(l2_tag_2m, set); at != kNoEntry) {
      Payload& p = l2_.payloads[at];
      l2_.TouchRank(set, at - set * static_cast<std::size_t>(l2_.ways));
      l1_2m_.Install(vpn2m, l1_2m_.SetIndex(vpn2m), p.pfn, static_cast<int>(p.node));
      return TlbLookup{TlbHitLevel::kL2, p.pfn, static_cast<int>(p.node), PageSize::k2M};
    }
  }
  return TlbLookup{};
}

inline void Tlb::Insert(Addr va, PageSize size, Pfn pfn, int node) {
  switch (size) {
    case PageSize::k4K: {
      const std::uint64_t vpn = va >> kShift4K;
      l1_4k_.Install(vpn, l1_4k_.SetIndex(vpn), pfn, node);
      l2_.Install((vpn << 1) | 0, l2_.SetIndex(vpn), pfn, node);
      break;
    }
    case PageSize::k2M: {
      const std::uint64_t vpn = va >> kShift2M;
      l1_2m_.Install(vpn, l1_2m_.SetIndex(vpn), pfn, node);
      l2_.Install((vpn << 1) | 1, l2_.SetIndex(vpn), pfn, node);
      break;
    }
    case PageSize::k1G: {
      const std::uint64_t vpn = va >> kShift1G;
      l1_1g_.Install(vpn, l1_1g_.SetIndex(vpn), pfn, node);
      break;
    }
  }
}

}  // namespace numalp

#endif  // NUMALP_SRC_HW_TLB_H_
