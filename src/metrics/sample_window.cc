#include "src/metrics/sample_window.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace numalp {

SampleWindow::SampleWindow(std::size_t max_epochs, ProfileMode mode,
                           const ProfileSketchConfig& sketch)
    : max_epochs_(max_epochs), mode_(mode) {
  assert(max_epochs_ > 0);
  if (mode_ == ProfileMode::kSketch) {
    admit_threshold_ = sketch.admit_threshold;
    filter_ = CuckooFilter(static_cast<std::size_t>(sketch.filter_capacity));
    sketch_ = CountSketch(sketch.sketch_rows, sketch.sketch_width);
    scratch_presketch_ = CountSketch(sketch.sketch_rows, sketch.sketch_width);
  }
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

void SampleWindow::ApplySketched(const IbsSample& sample, std::span<const IbsSample> epoch,
                                 std::size_t index, const CountSketch& presketch) {
  const Addr base = AlignDown(sample.va, kBytes4K);
  if (window_4k_.Find(base) != nullptr) {
    Apply(sample, +1);
    return;
  }
  // Admission estimate: live tracked samples from prior epochs plus *all* of
  // this epoch's samples for the page (the presketch makes admission eager —
  // a page destined to cross the threshold this epoch is admitted at its
  // first sample, so its epoch-end aggregate equals exact mode's). Both
  // sketches only ever overestimate, which admits early — toward exact
  // behavior, never away from it.
  if (sketch_.Estimate(base) + presketch.Estimate(base) >= admit_threshold_) {
    AdmitPage(base, epoch, index);
    Apply(sample, +1);
    return;
  }
  if (filter_.Insert(base)) {
    sketch_.Add(base, +1);
  } else {
    // Filter full: the sample stays live but untracked. Count it — the
    // divergence regression asserts this counter — and remember that
    // admissions can no longer trust the filter to witness emptiness.
    ++admission_misses_;
    ++missed_live_;
  }
}

void SampleWindow::AdmitPage(Addr base, std::span<const IbsSample> epoch, std::size_t prefix) {
  std::int32_t purged = 0;
  while (filter_.Erase(base)) {
    ++purged;
  }
  if (purged > 0) {
    sketch_.Add(base, -purged);
  }
  // Reconstruct the page's exact aggregate by scanning the raw window.
  // Skip the scan when provably nothing is live for this page: the purge
  // found no filter occurrences and no sample anywhere went untracked. At
  // admit_threshold 1 this always holds (pages admit on their very first
  // sample), which keeps the identity path O(1) per sample.
  if (purged == 0 && missed_live_ == 0) {
    return;
  }
  // The scan re-applies with the same commutative integer ops incremental
  // maintenance uses, so the rebuilt aggregate is bit-equal to what exact
  // mode holds — and it heals samples the full filter failed to track.
  for (const auto& epoch_samples : epochs_) {
    for (const IbsSample& sample : epoch_samples) {
      if (AlignDown(sample.va, kBytes4K) == base) {
        Apply(sample, +1);
      }
    }
  }
  for (std::size_t i = 0; i < prefix; ++i) {
    if (AlignDown(epoch[i].va, kBytes4K) == base) {
      Apply(epoch[i], +1);
    }
  }
}

void SampleWindow::RetireSketched(const IbsSample& sample) {
  const Addr base = AlignDown(sample.va, kBytes4K);
  PageAgg* agg = window_4k_.Find(base);
  if (agg == nullptr) {
    // Retiring a sample of a never-admitted page: return its slot. A failed
    // erase means the occurrence was lost — either this sample missed the
    // full filter, or fingerprint aliasing let another page's purge take it
    // — so settle the miss debt instead.
    if (filter_.Erase(base)) {
      sketch_.Add(base, -1);
    } else if (missed_live_ > 0) {
      --missed_live_;
    }
    return;
  }
  // Admitted page: Apply(sample, -1) with saturation in place of the exact
  // mode's asserts. Under filter exhaustion a page admits with whatever
  // samples the scan could see, and the retirement stream may then
  // over-deliver; decrements must clamp, not wrap.
  if (agg->total > 0) {
    agg->total -= 1;
  }
  if (sample.dram && agg->dram > 0) {
    agg->dram -= 1;
  }
  if (agg->req_node_counts[sample.req_node] > 0) {
    agg->req_node_counts[sample.req_node] -= 1;
  }
  const std::uint64_t core_key = CoreCountKey(base, sample.core);
  if (std::uint32_t* core_count = core_counts_.Find(core_key)) {
    if (--*core_count == 0) {
      core_counts_.Erase(core_key);
      agg->core_mask &= ~(1ull << (sample.core % 64));
    }
  }
  if (agg->total == 0) {
    window_4k_.Erase(base);
    retired_pages_.push_back(base);
  }
}

void SampleWindow::Clear() {
  epochs_.clear();
  window_4k_.clear();
  core_counts_.clear();
  filter_.Clear();
  sketch_.Reset();
  retired_pages_.clear();
  missed_live_ = 0;
}

void SampleWindow::PushEpoch(std::vector<IbsSample> samples, const CountSketch* presketch) {
  retired_pages_.clear();
  if (mode_ == ProfileMode::kSketch) {
    const CountSketch* pre = presketch;
    if (pre == nullptr) {
      scratch_presketch_.Reset();
      for (const IbsSample& sample : samples) {
        scratch_presketch_.Add(AlignDown(sample.va, kBytes4K), +1);
      }
      pre = &scratch_presketch_;
    }
    const std::span<const IbsSample> epoch(samples);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ApplySketched(samples[i], epoch, i, *pre);
    }
  } else {
    for (const IbsSample& sample : samples) {
      Apply(sample, +1);
    }
  }
  epochs_.push_back(std::move(samples));
  if (epochs_.size() > max_epochs_) {
    for (const IbsSample& sample : epochs_.front()) {
      if (mode_ == ProfileMode::kSketch) {
        RetireSketched(sample);
      } else {
        Apply(sample, -1);
      }
    }
    epochs_.pop_front();
  }
  peak_4k_entries_ = std::max(peak_4k_entries_, window_4k_.size());
  peak_core_entries_ = std::max(peak_core_entries_, core_counts_.size());
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
// pieces)). The consumers below compute commutative integer sums or
// existence, so the visit order difference cannot change their results.
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

bool SampleWindow::HasSamplesIn(Addr base, std::uint64_t bytes) const {
  bool any = false;
  ForEach4KIn(window_4k_, base, bytes, [&](const PageAgg& agg) {
    any = any || agg.total > 0;
  });
  return any;
}

std::vector<Addr> SampleWindow::EmptiedWindows(std::uint64_t bytes) const {
  std::vector<Addr> windows;
  for (const Addr base : retired_pages_) {
    windows.push_back(AlignDown(base, bytes));
  }
  std::sort(windows.begin(), windows.end());
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  std::erase_if(windows, [&](Addr w) { return HasSamplesIn(w, bytes); });
  return windows;
}

std::size_t SampleWindow::peak_state_bytes() const {
  // Storage cost per aggregate entry: the dense item plus one index slot —
  // the same flat-map layout in both modes, so the exact-vs-sketch ratio is
  // apples to apples.
  const std::size_t agg_entry =
      sizeof(FlatMap<Addr, PageAgg>::Item) + sizeof(std::uint32_t);
  const std::size_t core_entry =
      sizeof(FlatMap<std::uint64_t, std::uint32_t>::Item) + sizeof(std::uint32_t);
  return peak_4k_entries_ * agg_entry + peak_core_entries_ * core_entry +
         filter_.bytes() + sketch_.bytes();
}

std::span<const IbsSample> SampleWindow::latest_samples() const {
  if (epochs_.empty()) {
    return {};
  }
  return std::span<const IbsSample>(epochs_.back());
}

}  // namespace numalp
