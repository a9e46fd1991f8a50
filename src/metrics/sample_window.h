// Epoch-incremental IBS sample window (the epoch pipeline's Profile stage).
//
// Policies act on a sliding window of epochs' samples. The seed engine
// re-concatenated and re-aggregated the whole window every epoch —
// O(window_epochs x samples_per_epoch) hash-and-translate work per epoch,
// quadratic over a run. SampleWindow keeps a running aggregate at 4KB
// granularity instead and updates it by adding the newest epoch and
// subtracting the oldest, so per-epoch cost is O(samples_per_epoch +
// distinct_pages) no matter how long the window is.
//
// 4KB is the one granularity that never re-buckets: every mapping-size page
// is a union of aligned 4KB windows, so splits, promotions and migrations
// leave the running aggregate untouched. The mapping-granularity view that
// the policies consume is derived on demand by FoldToMapping, which
// translates each 4KB base against the *current* address space — exactly
// what full re-aggregation computed, including the post-split re-bucketing
// path (just fold again after splitting).
//
// Sharer masks are ORs and cannot be subtracted, so the window additionally
// keeps a per-(page, core-bit) sample count; a bit clears when its count
// hits zero. All updates are integer-exact: FoldToMapping is bit-identical
// to AggregateSamples over the concatenated window, the seed's computation
// (tests/perf_structures_test.cc holds the two equal across mapping churn).
#ifndef NUMALP_SRC_METRICS_SAMPLE_WINDOW_H_
#define NUMALP_SRC_METRICS_SAMPLE_WINDOW_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "src/common/flat_map.h"
#include "src/hw/ibs.h"
#include "src/metrics/numa_metrics.h"
#include "src/vm/address_space.h"

namespace numalp {

class SampleWindow {
 public:
  // `max_epochs`: sliding-window length (the safety cap; Carrefour's kernel
  // module never resets its per-page statistics).
  explicit SampleWindow(std::size_t max_epochs);

  // Appends one epoch of samples and retires the oldest epoch once more
  // than `max_epochs` are held (matching the seed's push-then-trim order).
  void PushEpoch(std::vector<IbsSample> samples);

  // The mapping-granularity aggregate of every sample in the window,
  // translated against the current address space. Equal to
  // AggregateSamples(<concatenated window>, address_space, kMapping).
  PageAggMap FoldToMapping(const AddressSpace& address_space) const;

  // Empties the window — stored epochs, running aggregate and sharer
  // counts. The engine calls this once, at the setup→steady transition:
  // the paper's benchmarks exclude initialization, and a 60-epoch run would
  // otherwise carry the first-touch storm's cross-node samples in every
  // policy decision for the rest of the run (DESIGN.md Section 8).
  void Clear();

  // The most recently pushed epoch's samples (the per-iteration estimator
  // input; valid until the next PushEpoch).
  std::span<const IbsSample> latest_samples() const;

  // Majority requester node over the window's samples falling in
  // [base, base + bytes), summed at 4KB granularity — the split-time piece
  // placement query (DESIGN.md Section 8.4): pieces of a demoted shared page
  // land on the node that issued most of their sampled accesses. Ties go to
  // the lowest node (PageAgg::MajorityReqNode's convention); nullopt when the
  // range carries fewer than `min_samples` samples — a one-sample "majority"
  // is noise, and misplacing a piece costs a round trip. Reads the running
  // 4KB aggregate.
  std::optional<int> MajorityReqNodeIn(Addr base, std::uint64_t bytes,
                                       std::uint64_t min_samples = 1) const;

  // Piece-level locality of [base, base + bytes): over the range's sampled
  // 4KB pieces, the percentage of samples issued by each piece's own
  // majority node (sum of per-piece majority counts / sum of totals). A
  // false-sharing window scores high — every piece is dominated by one
  // accessor — while a genuinely hot page (CG's reduction chunks, hammered
  // from every node) scores near 100/num_nodes. This is the hot-page
  // interleave-vs-localize discriminator (DESIGN.md Section 8.4). Returns
  // -1 when the range has no samples.
  double PieceLocalityPctIn(Addr base, std::uint64_t bytes) const;

  std::size_t epochs() const { return epochs_.size(); }
  // Distinct 4KB pages currently aggregated.
  std::size_t distinct_pages() const { return window_4k_.size(); }

 private:
  // Running 4KB aggregate entry. home_node/size of PageAgg are not
  // maintained here (FoldToMapping re-derives both from the live mapping).
  void Apply(const IbsSample& sample, int direction);

  static std::uint64_t CoreCountKey(Addr page_4k, int core) {
    return (page_4k >> kShift4K) << 6 | static_cast<std::uint64_t>(core % 64);
  }

  std::size_t max_epochs_;
  std::deque<std::vector<IbsSample>> epochs_;
  FlatMap<Addr, PageAgg> window_4k_;
  // Samples per (4KB page, core bit) — makes the OR'd core_mask retirable.
  FlatMap<std::uint64_t, std::uint32_t> core_counts_;
};

}  // namespace numalp

#endif  // NUMALP_SRC_METRICS_SAMPLE_WINDOW_H_
