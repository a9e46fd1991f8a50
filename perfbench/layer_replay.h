// Outside-in per-layer timing. The simulator has no timers of its own, so the
// traced run replays one cell's pipeline by calling each layer's public
// functions directly, on the same inputs the cell produces (its access
// stream, the IBS samples drawn from it, the folds of those samples), and
// times every call at batch or epoch granularity — never per access, so the
// timers stay a negligible share of what they measure.
//
// The replay covers the stages the layers own: access generation or trace
// decode (workloads, trace), TLB lookups with translation and IBS sampling on
// the access path (hw), first-touch faults, plan migrations and munmap (vm),
// the sample window (metrics), Carrefour's plan (carrefour), and buddy
// allocation on the free lists the replay leaves behind (mem). What it does
// not replay — the reactive Carrefour-LP component, khugepaged, the DRAM and
// interconnect cost model, speculative windows — is engine work and counts
// as unattributed core time.
#ifndef NUMALP_PERFBENCH_LAYER_REPLAY_H_
#define NUMALP_PERFBENCH_LAYER_REPLAY_H_

#include <cstdint>

#include "src/core/runner.h"

namespace perfbench {

// Host seconds and event counts accumulated over replayed cells.
struct LayerTimes {
  std::uint64_t accesses = 0;
  // workloads: BeginEpoch + FillBatch (for traces, FillBatch only).
  double fill_s = 0.0;
  // trace: TraceWorkload::BeginEpoch, i.e. TraceReader::NextEpoch plus the
  // epoch's region mmaps.
  double decode_s = 0.0;
  // hw: Tlb::Lookup, Translate + Tlb::Insert on a miss, IBS sampling.
  double hw_s = 0.0;
  std::uint64_t lookups = 0;
  // vm: AddressSpace::Touch over setup batches...
  double fault_s = 0.0;
  std::uint64_t setup_faults = 0;
  // ...MigratePage for the Carrefour plan...
  double migrate_s = 0.0;
  // ...and MunmapRange for the source's unmap events.
  double munmap_s = 0.0;
  std::uint64_t munmap_bytes = 0;
  // metrics: SampleWindow::PushEpoch and FoldToMapping.
  double push_s = 0.0;
  std::uint64_t samples = 0;
  double fold_s = 0.0;
  std::uint64_t folds = 0;
  std::uint64_t fold_pages = 0;
  // carrefour: Carrefour::Plan on each epoch's fold.
  double plan_s = 0.0;
  std::uint64_t plans = 0;
  std::uint64_t actions = 0;
  // mem: BuddyAllocator Alloc/Free pairs at orders 0 and 9 after the replay.
  double alloc_s = 0.0;
  std::uint64_t alloc_pairs = 0;

  // Seconds the replay attributes to cell execution (everything but the
  // after-the-fact allocator probe).
  double AttributedSeconds() const {
    return fill_s + decode_s + hw_s + fault_s + migrate_s + munmap_s + push_s + fold_s + plan_s;
  }
};

// Replays `spec` for `epochs` epochs (the epoch count the real run took) and
// adds its timings and counts to `*times`.
void ReplayCell(const numalp::RunSpec& spec, int epochs, LayerTimes* times);

}  // namespace perfbench

#endif  // NUMALP_PERFBENCH_LAYER_REPLAY_H_
