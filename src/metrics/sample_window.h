// Epoch-incremental IBS sample window (the RunPolicies hot path).
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
//
// ProfileMode::kSketch (DESIGN.md Section 11) puts a cuckoo-fingerprint
// filter + count-min sketch in front of the exact aggregate: a page's
// samples are tracked only as a filter occurrence + sketch increment until
// the page's estimated live sample count reaches the admission threshold,
// at which point its exact aggregate is reconstructed from the raw epochs
// (integer ops commute, so the reconstruction equals what incremental
// maintenance would have produced) and its filter entries are purged.
// Retiring an unadmitted sample erases its filter occurrence and decrements
// the sketch, so the front end holds state only for *live* unadmitted
// samples — O(sampled set), never O(touched footprint). At the default
// threshold of 1 every page admits on its first sample and the filter and
// sketch are never populated at all, which is why sketch mode is
// bit-identical to exact mode there (the identity-test contract).
#ifndef NUMALP_SRC_METRICS_SAMPLE_WINDOW_H_
#define NUMALP_SRC_METRICS_SAMPLE_WINDOW_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "src/common/count_sketch.h"
#include "src/common/cuckoo_filter.h"
#include "src/common/flat_map.h"
#include "src/core/config.h"
#include "src/hw/ibs.h"
#include "src/metrics/numa_metrics.h"
#include "src/vm/address_space.h"

namespace numalp {

class SampleWindow {
 public:
  // `max_epochs`: sliding-window length (the safety cap; Carrefour's kernel
  // module never resets its per-page statistics).
  explicit SampleWindow(std::size_t max_epochs, ProfileMode mode = ProfileMode::kExact,
                        const ProfileSketchConfig& sketch = {});

  // Appends one epoch of samples and retires the oldest epoch once more
  // than `max_epochs` are held (matching the seed's push-then-trim order).
  // In sketch mode `presketch` is the epoch's own sample-count sketch (every
  // sample of `samples` added at 4KB granularity) so the admission test sees
  // the whole epoch eagerly; pass nullptr to have the window build it
  // internally — the engine passes the one it accumulated during execution
  // to spare the extra pass.
  void PushEpoch(std::vector<IbsSample> samples,
                 const CountSketch* presketch = nullptr);

  // The mapping-granularity aggregate of every sample in the window,
  // translated against the current address space. Equal to
  // AggregateSamples(<concatenated window>, address_space, kMapping).
  PageAggMap FoldToMapping(const AddressSpace& address_space) const;

  // Empties the window — stored epochs, running aggregate, sharer counts,
  // and the sketch front end's live state (cumulative counters and
  // high-water marks persist). The engine calls this once, at the
  // setup→steady transition: the paper's benchmarks exclude initialization,
  // and a 60-epoch run would otherwise carry the first-touch storm's
  // cross-node samples in every policy decision for the rest of the run
  // (DESIGN.md Section 8).
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

  // True when any aggregated sample falls in [base, base + bytes) — the
  // Carrefour state-pruning probe (a fully retired 2MB window with no
  // remaining samples can forget its mirrored per-page statistics).
  bool HasSamplesIn(Addr base, std::uint64_t bytes) const;

  // 4KB bases whose aggregates were fully retired by the most recent
  // PushEpoch (sketch mode only; always empty in exact mode). The engine uses these to prune the mirrored Carrefour state so
  // long sparse runs don't accrete it.
  const std::vector<Addr>& retired_pages() const { return retired_pages_; }

  std::size_t epochs() const { return epochs_.size(); }
  // Distinct 4KB pages currently aggregated.
  std::size_t distinct_pages() const { return window_4k_.size(); }

  ProfileMode profile_mode() const { return mode_; }
  // Live unadmitted samples currently tracked by the fingerprint filter.
  std::size_t filter_occupancy() const { return filter_.size(); }
  // Samples that could not be tracked because the filter was full
  // (cumulative over the run — the graceful-degradation counter; 0 in
  // exact mode and whenever the filter is sized to the sampled set).
  std::uint64_t admission_misses() const { return admission_misses_; }
  // High-water mark of exact-aggregate entries (4KB aggregates +
  // per-(page, core-bit) counts), cumulative over the run.
  std::size_t peak_entries() const { return peak_4k_entries_ + peak_core_entries_; }
  // High-water tracked-state bytes: peak exact entries at their storage
  // cost plus the (fixed) filter + sketch budget — the number the
  // profile-sweep bench records for the state-reduction claim.
  std::size_t peak_state_bytes() const;

 private:
  // Running 4KB aggregate entry. home_node/size of PageAgg are not
  // maintained here (FoldToMapping re-derives both from the live mapping).
  void Apply(const IbsSample& sample, int direction);

  // Sketch-mode insert: admitted pages update exactly; unadmitted samples
  // park in the filter + sketch until the admission estimate (persistent
  // sketch + this epoch's presketch) crosses the threshold.
  void ApplySketched(const IbsSample& sample, std::span<const IbsSample> epoch,
                     std::size_t index, const CountSketch& presketch);

  // Purges the page's filter/sketch entries and reconstructs its exact
  // aggregate from the raw window (prior epochs plus the first `prefix`
  // samples of the epoch currently being pushed).
  void AdmitPage(Addr base, std::span<const IbsSample> epoch, std::size_t prefix);

  // Sketch-mode retirement of one oldest-epoch sample. Identical to
  // Apply(sample, -1) for healthily admitted pages, but saturates instead
  // of asserting — under filter exhaustion a page can be admitted with
  // fewer reconstructed samples than are truly live, and the retirement
  // stream then over-delivers.
  void RetireSketched(const IbsSample& sample);

  static std::uint64_t CoreCountKey(Addr page_4k, int core) {
    return (page_4k >> kShift4K) << 6 | static_cast<std::uint64_t>(core % 64);
  }

  std::size_t max_epochs_;
  ProfileMode mode_;
  std::deque<std::vector<IbsSample>> epochs_;
  FlatMap<Addr, PageAgg> window_4k_;
  // Samples per (4KB page, core bit) — makes the OR'd core_mask retirable.
  FlatMap<std::uint64_t, std::uint32_t> core_counts_;

  // Sketch front end (allocated only in sketch mode; see file comment).
  std::uint64_t admit_threshold_ = 1;
  CuckooFilter filter_;
  CountSketch sketch_;
  CountSketch scratch_presketch_;
  std::vector<Addr> retired_pages_;
  std::uint64_t admission_misses_ = 0;
  // Live samples the filter had no room for. While nonzero, admissions
  // cannot trust "no filter entries" to mean "no live samples" and must
  // scan the raw window; an upper bound (reconstruction heals misses
  // without attribution), which only costs scans, never correctness.
  std::uint64_t missed_live_ = 0;
  std::size_t peak_4k_entries_ = 0;
  std::size_t peak_core_entries_ = 0;
};

}  // namespace numalp

#endif  // NUMALP_SRC_METRICS_SAMPLE_WINDOW_H_
