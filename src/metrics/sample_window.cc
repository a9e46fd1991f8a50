#include "src/metrics/sample_window.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace numalp {

SampleWindow::SampleWindow(std::size_t max_epochs) : max_epochs_(max_epochs) {
  assert(max_epochs_ > 0);
}

void SampleWindow::Apply(const IbsSample& sample, int direction) {
  const Addr base = AlignDown(sample.va, kBytes4K);
  if (direction > 0) {
    PageAgg& agg = window_4k_[base];
    agg.total += 1;
    agg.dram += sample.dram ? 1u : 0u;
    agg.req_node_counts[sample.req_node] += 1;
    std::uint32_t& core_count = core_counts_[CoreCountKey(base, sample.core)];
    if (core_count++ == 0) {
      agg.core_mask |= 1ull << (sample.core % 64);
    }
    return;
  }
  PageAgg* agg = window_4k_.Find(base);
  assert(agg != nullptr && agg->total > 0);
  agg->total -= 1;
  agg->dram -= sample.dram ? 1u : 0u;
  agg->req_node_counts[sample.req_node] -= 1;
  const std::uint64_t core_key = CoreCountKey(base, sample.core);
  std::uint32_t* core_count = core_counts_.Find(core_key);
  assert(core_count != nullptr && *core_count > 0);
  if (--*core_count == 0) {
    core_counts_.Erase(core_key);
    agg->core_mask &= ~(1ull << (sample.core % 64));
  }
  if (agg->total == 0) {
    assert(agg->core_mask == 0);
    window_4k_.Erase(base);
  }
}

void SampleWindow::Clear() {
  epochs_.clear();
  window_4k_.clear();
  core_counts_.clear();
}

void SampleWindow::PushEpoch(std::vector<IbsSample> samples) {
  for (const IbsSample& sample : samples) {
    Apply(sample, +1);
  }
  epochs_.push_back(std::move(samples));
  if (epochs_.size() > max_epochs_) {
    for (const IbsSample& sample : epochs_.front()) {
      Apply(sample, -1);
    }
    epochs_.pop_front();
  }
}

PageAggMap SampleWindow::FoldToMapping(const AddressSpace& address_space) const {
  // Fold in ascending 4KB-base order: containing mappings are disjoint and
  // ordered, so the folded map's dense storage comes out ascending too —
  // ForEachPageSorted's linear fast path engages for every decision pass,
  // and consecutive 4KB bases share a mapping, so the translate cache turns
  // most translations into a range check. The fold *contents* are
  // order-independent (integer merges); only the storage order changes.
  std::vector<const PageAggMap::Item*> order;
  order.reserve(window_4k_.size());
  for (const auto& item : window_4k_) {
    order.push_back(&item);
  }
  std::sort(order.begin(), order.end(),
            [](const PageAggMap::Item* a, const PageAggMap::Item* b) {
              return a->first < b->first;
            });
  PageAggMap folded;
  AddressSpace::TranslationCache cache;
  for (const PageAggMap::Item* item : order) {
    const auto& [base, agg] = *item;
    const auto mapping = address_space.Translate(base, cache);
    if (!mapping.has_value()) {
      continue;  // page was unmapped since sampling: AggregateSamples drops it too
    }
    PageAgg& out = folded[mapping->page_base];
    out.size = mapping->size;
    out.home_node = mapping->node;
    out.AddCounts(agg);
  }
  return folded;
}

namespace {

// Invokes fn(agg) for every sampled 4KB piece in [base, base + bytes).
// Narrow ranges (a 4KB or 2MB piece) probe per page; ranges wider than the
// window's population (a 1GB candidate over a sparse window) iterate the
// sampled pieces instead, so the cost is O(min(range pages, sampled
// pieces)). The consumers below compute commutative integer sums, so the
// visit order difference cannot change their results.
template <typename Fn>
void ForEach4KIn(const FlatMap<Addr, PageAgg>& map, Addr base, std::uint64_t bytes, Fn&& fn) {
  if (bytes / kBytes4K > map.size()) {
    for (const auto& [page, agg] : map) {
      if (page >= base && page - base < bytes) {
        fn(agg);
      }
    }
    return;
  }
  for (Addr p = base; p < base + bytes; p += kBytes4K) {
    if (const PageAgg* agg = map.Find(p)) {
      fn(*agg);
    }
  }
}

}  // namespace

std::optional<int> SampleWindow::MajorityReqNodeIn(Addr base, std::uint64_t bytes,
                                                   std::uint64_t min_samples) const {
  std::array<std::uint64_t, kMaxNodes> counts{};
  std::uint64_t total = 0;
  ForEach4KIn(window_4k_, base, bytes, [&](const PageAgg& agg) {
    total += agg.total;
    for (int n = 0; n < kMaxNodes; ++n) {
      counts[static_cast<std::size_t>(n)] += agg.req_node_counts[static_cast<std::size_t>(n)];
    }
  });
  if (total < min_samples || total == 0) {
    return std::nullopt;
  }
  int best = 0;
  for (int n = 1; n < kMaxNodes; ++n) {
    if (counts[static_cast<std::size_t>(n)] > counts[static_cast<std::size_t>(best)]) {
      best = n;
    }
  }
  return best;
}

double SampleWindow::PieceLocalityPctIn(Addr base, std::uint64_t bytes) const {
  std::uint64_t majority = 0;
  std::uint64_t total = 0;
  ForEach4KIn(window_4k_, base, bytes, [&](const PageAgg& agg) {
    std::uint32_t piece_majority = 0;
    std::uint64_t piece_total = 0;
    for (int n = 0; n < kMaxNodes; ++n) {
      const std::uint32_t count = agg.req_node_counts[static_cast<std::size_t>(n)];
      piece_majority = std::max(piece_majority, count);
      piece_total += count;
    }
    majority += piece_majority;
    total += piece_total;
  });
  if (total == 0) {
    return -1.0;
  }
  return 100.0 * static_cast<double>(majority) / static_cast<double>(total);
}

std::span<const IbsSample> SampleWindow::latest_samples() const {
  if (epochs_.empty()) {
    return {};
  }
  return std::span<const IbsSample>(epochs_.back());
}

}  // namespace numalp
