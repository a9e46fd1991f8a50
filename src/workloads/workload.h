// Runtime workload instance: mmaps its regions into an AddressSpace and
// generates per-thread access batches (setup phase first, then steady state)
// from deterministic per-thread PRNG streams.
#ifndef NUMALP_SRC_WORKLOADS_WORKLOAD_H_
#define NUMALP_SRC_WORKLOADS_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/common/zipf.h"
#include "src/vm/address_space.h"
#include "src/workloads/access_source.h"
#include "src/workloads/spec.h"

namespace numalp {

class Workload : public AccessSource {
 public:
  // Steady-state accesses are generated in per-region runs, with the RNG
  // state, region tables and pattern dispatch hoisted out of the per-access
  // path. The stream is byte-identical to the seed's one-call-per-access
  // generator, which tests/oracles/per_call_generator.h keeps as the oracle
  // (tests/perf_structures_test.cc pins the two equal).
  Workload(const WorkloadSpec& spec, AddressSpace& address_space, int num_threads,
           std::uint64_t seed);

  // Marks an epoch boundary: latches whether any thread still has setup
  // (first-touch) work. While latched, threads that finish their queue spin
  // on their private scratch page until the next epoch — like workers
  // parked on a barrier while the master initializes.
  void BeginEpoch() override;

  // Appends `n` accesses for `thread` to `out` (cleared first). Consumes the
  // thread's setup queue before switching to steady-state draws. Touches
  // only `threads_[thread]` (plus read-only tables), so distinct threads
  // may fill concurrently.
  void FillBatch(int thread, std::size_t n, std::vector<WorkloadAccess>& out) override;

  // True once every thread has issued its steady-state budget.
  bool Done() const override;

  // True once every thread has drained its setup (first-touch) queue.
  // Read from the per-thread cursors, so concurrent fills share no counter.
  bool SetupDone() const override;

  // DRAM intensity of region index `region` (the engine's cache model).
  double dram_intensity(int region) const {
    return regions_[static_cast<std::size_t>(region)].spec->dram_intensity;
  }
  // Memory-level parallelism of the region (scales exposed walk cost).
  double mlp(int region) const {
    return regions_[static_cast<std::size_t>(region)].spec->mlp;
  }

  const WorkloadSpec& spec() const { return spec_; }
  int num_threads() const override { return num_threads_; }
  // Region count including the internal scratch region (region ids in
  // emitted accesses are < num_regions()).
  int num_regions() const override { return static_cast<int>(regions_.size()); }
  SourceRegion region(int r) const override {
    const RegionRt& rt = regions_[static_cast<std::size_t>(r)];
    SourceRegion desc;
    desc.base = rt.base;
    desc.bytes = rt.vma_bytes;
    desc.thp_eligible = rt.spec->thp_eligible;
    desc.explicit_page = rt.spec->explicit_page;
    desc.dram_intensity = rt.spec->dram_intensity;
    desc.mlp = rt.spec->mlp;
    return desc;
  }
  Addr region_base(int region) const {
    return regions_[static_cast<std::size_t>(region)].base;
  }
  std::uint64_t steady_issued(int thread) const {
    return threads_[static_cast<std::size_t>(thread)].steady_issued;
  }
  // Total footprint the workload can touch (bytes).
  std::uint64_t footprint_bytes() const override;

 private:
  // The per-call generator oracle reads the region and thread tables.
  friend class PerCallGenerator;

  struct RegionRt {
    const RegionSpec* spec = nullptr;
    Addr base = 0;
    std::uint64_t vma_bytes = 0;  // mapped VMA size (4KB-aligned)
    std::uint64_t pages = 0;      // 4KB pages
    std::optional<ZipfSampler> zipf;
    std::uint64_t slice_pages = 0;  // partitioned / sequential / incremental
    std::uint64_t zipf_stride = 0;  // block-shuffle stride (0 = identity layout)
    int chunks = 0;
    std::uint64_t chunk_pages = 0;
    std::uint64_t stride_pages = 0;
  };
  struct ThreadRt {
    Rng rng{0};
    // Setup queue: flat list of (region, page) indices this thread must
    // first-touch, consumed in order.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> setup;
    std::size_t setup_cursor = 0;
    std::uint64_t steady_issued = 0;
    std::vector<std::uint64_t> seq_cursor;    // kSequential per region
    std::vector<std::uint64_t> alloc_cursor;  // incremental growth per region
  };

  // Batched steady-state generator: appends `count` accesses for `thread`,
  // consuming the exact variate sequence the seed's per-call generator
  // would.
  void SteadyRun(int thread, std::size_t count, std::vector<WorkloadAccess>& out);
  Addr PageVa(const RegionRt& region, std::uint64_t page, Rng& rng) const;

  WorkloadSpec spec_;
  int num_threads_;
  std::vector<RegionRt> regions_;
  std::vector<ThreadRt> threads_;
  std::vector<double> share_cdf_;
  Addr scratch_base_ = 0;
  int scratch_region_ = 0;
  bool barrier_this_epoch_ = true;
};

}  // namespace numalp

#endif  // NUMALP_SRC_WORKLOADS_WORKLOAD_H_
