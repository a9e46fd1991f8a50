// The access-stream abstraction the simulation consumes (DESIGN.md §14).
//
// An AccessSource produces the per-thread epoch batches the engine executes,
// plus region metadata for the cost model and — new with trace replay —
// mmap-lifetime events: regions can appear (RegionMap) and disappear
// (RegionUnmap) at epoch boundaries, which is how long-lived mmap/munmap
// churn reaches the buddy allocator and produces real free-list
// fragmentation. Two implementations exist: the synthetic generators
// (workload.h, the paper's benchmark models) and TraceWorkload
// (trace_workload.h), which replays a recorded binary trace.
#ifndef NUMALP_SRC_WORKLOADS_ACCESS_SOURCE_H_
#define NUMALP_SRC_WORKLOADS_ACCESS_SOURCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/units.h"

namespace numalp {

struct WorkloadAccess {
  Addr va = 0;
  std::uint8_t region = 0;
  bool write = false;
};

// Region metadata the engine needs per emitted `WorkloadAccess::region` id:
// the cost model reads dram_intensity/mlp, the trace capture path records
// the full descriptor so replay can reconstruct the identical VMA.
struct SourceRegion {
  Addr base = 0;
  std::uint64_t bytes = 0;  // VMA size (4KB-aligned)
  bool thp_eligible = true;
  std::optional<PageSize> explicit_page;  // libhugetlbfs-style backing
  double dram_intensity = 0.5;
  double mlp = 1.0;
};

// A region mapped mid-run (mmap churn). The source performs the MmapAnon
// itself during BeginEpoch (the batch it emits may touch the region); the
// simulation drains the event for churn accounting and trace capture.
struct RegionMapEvent {
  int region = 0;  // the id accesses will carry
  SourceRegion desc;
};

// A region whose lifetime ended this epoch. The *simulation* applies it at
// the epoch boundary (AddressSpace::MunmapRange frees the frames through the
// buddy allocator and shoots down stale TLB entries) — unmap is a shared-
// state mutation and belongs with the other serialized epoch-end work.
struct RegionUnmapEvent {
  int region = 0;
  Addr base = 0;
  std::uint64_t bytes = 0;
};

class AccessSource {
 public:
  virtual ~AccessSource() = default;

  // Marks an epoch boundary. Sources with lifetime events apply this epoch's
  // RegionMap mmaps here (before any FillBatch) and stage the events for
  // DrainMapEvents.
  virtual void BeginEpoch() = 0;

  // Appends up to `n` accesses for `thread` to `out` (cleared first).
  //
  // Concurrency contract: between BeginEpoch and the epoch's end, calls for
  // *distinct* threads may run concurrently (the sharded engine fills each
  // thread on the shard worker that runs its slices). A call may mutate
  // only `thread`'s own state, and that thread's stream must depend only on
  // that state, so the batch is the same whichever host thread builds it.
  // Every other member is called from one thread, outside the fill.
  virtual void FillBatch(int thread, std::size_t n, std::vector<WorkloadAccess>& out) = 0;

  // True once the stream is exhausted (checked after each epoch).
  virtual bool Done() const = 0;

  // True once the setup (first-touch) phase is over. Queried *before*
  // BeginEpoch each epoch; capture records the answer per epoch so replay
  // reproduces the setup/steady split exactly.
  virtual bool SetupDone() const = 0;

  virtual int num_threads() const = 0;
  // Region ids in emitted accesses are < num_regions(); the count can grow
  // across epochs as RegionMap events arrive.
  virtual int num_regions() const = 0;
  virtual SourceRegion region(int r) const = 0;
  // Total bytes of every region ever mapped (monotonic under churn).
  virtual std::uint64_t footprint_bytes() const = 0;

  // Lifetime events staged since the last drain (empty for the synthetic
  // generators, whose regions live for the whole run). Map events are
  // drained right after BeginEpoch; unmap events at the epoch's end.
  virtual void DrainMapEvents(std::vector<RegionMapEvent>* out) { out->clear(); }
  virtual void DrainUnmapEvents(std::vector<RegionUnmapEvent>* out) { out->clear(); }
};

}  // namespace numalp

#endif  // NUMALP_SRC_WORKLOADS_ACCESS_SOURCE_H_
