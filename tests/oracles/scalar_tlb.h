// Test oracle for numalp::Tlb: the seed's scalar probe loop and timestamp-
// scan LRU, kept verbatim as a standalone class with Tlb's public surface
// (set selection by modulo and invalidation by plain scans, both
// value-identical to the production forms).
// The production Tlb replaces both with a SWAR signature probe and a rank-
// word LRU (src/hw/tlb.h); the churn batteries in tests/perf_structures_test
// and tests/hw_test drive the two through one operation stream and hold
// every lookup, eviction and live-entry counter identical.
#ifndef NUMALP_TESTS_ORACLES_SCALAR_TLB_H_
#define NUMALP_TESTS_ORACLES_SCALAR_TLB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/hw/tlb.h"

namespace numalp {

class ScalarTlb {
 public:
  explicit ScalarTlb(const TlbConfig& config) {
    l1_4k_.Init(config.l1_4k_sets, config.l1_4k_ways);
    l1_2m_.Init(config.l1_2m_sets, config.l1_2m_ways);
    l1_1g_.Init(config.l1_1g_sets, config.l1_1g_ways);
    l2_.Init(config.l2_sets, config.l2_ways);
  }

  TlbLookup Lookup(Addr va) {
    ++lookups_;
    ++tick_;
    const std::uint64_t vpn4k = va >> kShift4K;
    const std::uint64_t vpn2m = va >> kShift2M;
    const std::uint64_t vpn1g = va >> kShift1G;

    if (l1_4k_.live != 0) {
      if (std::size_t at = l1_4k_.Find(vpn4k, l1_4k_.SetIndex(vpn4k)); at != kNoEntry) {
        Payload& p = l1_4k_.payloads[at];
        l1_4k_.last_used[at] = tick_;
        return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k4K};
      }
    }
    if (l1_2m_.live != 0) {
      if (std::size_t at = l1_2m_.Find(vpn2m, l1_2m_.SetIndex(vpn2m)); at != kNoEntry) {
        Payload& p = l1_2m_.payloads[at];
        l1_2m_.last_used[at] = tick_;
        return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k2M};
      }
    }
    if (l1_1g_.live != 0) {
      if (std::size_t at = l1_1g_.Find(vpn1g, l1_1g_.SetIndex(vpn1g)); at != kNoEntry) {
        Payload& p = l1_1g_.payloads[at];
        l1_1g_.last_used[at] = tick_;
        return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k1G};
      }
    }
    // Unified L2: tags disambiguate page size.
    const std::uint64_t l2_tag_4k = (vpn4k << 1) | 0;
    const std::uint64_t l2_tag_2m = (vpn2m << 1) | 1;
    if (l2_.live_parity[0] != 0) {
      if (std::size_t at = l2_.Find(l2_tag_4k, l2_.SetIndex(vpn4k)); at != kNoEntry) {
        Payload& p = l2_.payloads[at];
        l2_.last_used[at] = tick_;
        l1_4k_.Install(vpn4k, l1_4k_.SetIndex(vpn4k), p.pfn, static_cast<int>(p.node), tick_);
        return TlbLookup{TlbHitLevel::kL2, p.pfn, static_cast<int>(p.node), PageSize::k4K};
      }
    }
    if (l2_.live_parity[1] != 0) {
      if (std::size_t at = l2_.Find(l2_tag_2m, l2_.SetIndex(vpn2m)); at != kNoEntry) {
        Payload& p = l2_.payloads[at];
        l2_.last_used[at] = tick_;
        l1_2m_.Install(vpn2m, l1_2m_.SetIndex(vpn2m), p.pfn, static_cast<int>(p.node), tick_);
        return TlbLookup{TlbHitLevel::kL2, p.pfn, static_cast<int>(p.node), PageSize::k2M};
      }
    }
    return TlbLookup{};
  }

  void Insert(Addr va, PageSize size, Pfn pfn, int node) {
    ++tick_;
    switch (size) {
      case PageSize::k4K: {
        const std::uint64_t vpn = va >> kShift4K;
        l1_4k_.Install(vpn, l1_4k_.SetIndex(vpn), pfn, node, tick_);
        l2_.Install((vpn << 1) | 0, l2_.SetIndex(vpn), pfn, node, tick_);
        break;
      }
      case PageSize::k2M: {
        const std::uint64_t vpn = va >> kShift2M;
        l1_2m_.Install(vpn, l1_2m_.SetIndex(vpn), pfn, node, tick_);
        l2_.Install((vpn << 1) | 1, l2_.SetIndex(vpn), pfn, node, tick_);
        break;
      }
      case PageSize::k1G: {
        const std::uint64_t vpn = va >> kShift1G;
        l1_1g_.Install(vpn, l1_1g_.SetIndex(vpn), pfn, node, tick_);
        break;
      }
    }
  }

  void InvalidatePage(Addr page_base, PageSize size) {
    switch (size) {
      case PageSize::k4K: {
        const std::uint64_t vpn = page_base >> kShift4K;
        l1_4k_.Clear(vpn, l1_4k_.SetIndex(vpn));
        l2_.Clear((vpn << 1) | 0, l2_.SetIndex(vpn));
        break;
      }
      case PageSize::k2M: {
        const std::uint64_t vpn = page_base >> kShift2M;
        l1_2m_.Clear(vpn, l1_2m_.SetIndex(vpn));
        l2_.Clear((vpn << 1) | 1, l2_.SetIndex(vpn));
        break;
      }
      case PageSize::k1G: {
        const std::uint64_t vpn = page_base >> kShift1G;
        l1_1g_.Clear(vpn, l1_1g_.SetIndex(vpn));
        break;
      }
    }
  }

  void InvalidateRange(Addr base, std::uint64_t bytes) {
    const Addr end = base + bytes;
    const auto overlaps = [&](std::uint64_t vpn, int va_shift) {
      const Addr va = vpn << va_shift;
      return va < end && va + (1ull << va_shift) > base;
    };
    l1_4k_.DropIf([&](std::uint64_t tag) { return overlaps(tag, kShift4K); });
    l1_2m_.DropIf([&](std::uint64_t tag) { return overlaps(tag, kShift2M); });
    l1_1g_.DropIf([&](std::uint64_t tag) { return overlaps(tag, kShift1G); });
    // The unified L2 packs the page size into tag bit 0.
    l2_.DropIf([&](std::uint64_t tag) {
      return overlaps(tag >> 1, (tag & 1) != 0 ? kShift2M : kShift4K);
    });
  }

  void FlushAll() {
    l1_4k_.Flush();
    l1_2m_.Flush();
    l1_1g_.Flush();
    l2_.Flush();
  }

  std::uint64_t lookups() const { return lookups_; }

  TlbOccupancy DebugOccupancy() const {
    return TlbOccupancy{l1_4k_.live, l1_2m_.live, l1_1g_.live, l2_.live_parity[0],
                        l2_.live_parity[1]};
  }

 private:
  static constexpr std::uint64_t kInvalidTag = ~0ull;
  static constexpr std::size_t kNoEntry = ~static_cast<std::size_t>(0);

  struct Payload {
    Pfn pfn = 0;
    std::uint32_t node = 0;
  };

  struct Array {
    int sets = 0;
    int ways = 0;
    std::vector<std::uint64_t> tags;       // sets * ways, kInvalidTag = empty
    std::vector<Payload> payloads;         // parallel to tags
    std::vector<std::uint64_t> last_used;  // LRU timestamps
    std::uint64_t live = 0;
    std::uint64_t live_parity[2] = {0, 0};

    void Init(int s, int w) {
      sets = s;
      ways = w;
      const std::size_t n = static_cast<std::size_t>(s) * static_cast<std::size_t>(w);
      tags.assign(n, kInvalidTag);
      payloads.assign(n, Payload{});
      last_used.assign(n, 0);
    }

    std::uint64_t SetIndex(std::uint64_t value) const {
      return value % static_cast<std::uint64_t>(sets);
    }

    // Index of `tag` within the set, or kNoEntry (first matching way).
    std::size_t Find(std::uint64_t tag, std::uint64_t set_index) const {
      const std::size_t base = set_index * static_cast<std::size_t>(ways);
      for (int w = 0; w < ways; ++w) {
        if (tags[base + static_cast<std::size_t>(w)] == tag) {
          return base + static_cast<std::size_t>(w);
        }
      }
      return kNoEntry;
    }

    // Victim: the first empty way, else the least recently used one.
    void Install(std::uint64_t tag, std::uint64_t set_index, Pfn pfn, int node,
                 std::uint64_t tick) {
      const std::size_t base = set_index * static_cast<std::size_t>(ways);
      std::size_t victim = base;
      for (int w = 0; w < ways; ++w) {
        const std::size_t at = base + static_cast<std::size_t>(w);
        if (tags[at] == kInvalidTag) {
          victim = at;
          break;
        }
        if (last_used[at] < last_used[victim]) {
          victim = at;
        }
      }
      if (tags[victim] == kInvalidTag) {
        ++live;
      } else {
        --live_parity[tags[victim] & 1];
      }
      ++live_parity[tag & 1];
      tags[victim] = tag;
      payloads[victim].pfn = pfn;
      payloads[victim].node = static_cast<std::uint32_t>(node);
      last_used[victim] = tick;
    }

    void Drop(std::size_t at) {
      --live;
      --live_parity[tags[at] & 1];
      tags[at] = kInvalidTag;
    }

    void Clear(std::uint64_t tag, std::uint64_t set_index) {
      if (const std::size_t at = Find(tag, set_index); at != kNoEntry) {
        Drop(at);
      }
    }

    template <typename Pred>
    void DropIf(Pred&& pred) {
      for (std::size_t at = 0; at < tags.size(); ++at) {
        if (tags[at] != kInvalidTag && pred(tags[at])) {
          Drop(at);
        }
      }
    }

    void Flush() {
      for (auto& tag : tags) {
        tag = kInvalidTag;
      }
      live = 0;
      live_parity[0] = live_parity[1] = 0;
    }
  };

  Array l1_4k_;
  Array l1_2m_;
  Array l1_1g_;
  Array l2_;  // tag includes the page size
  std::uint64_t tick_ = 0;
  std::uint64_t lookups_ = 0;
};

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLES_SCALAR_TLB_H_
