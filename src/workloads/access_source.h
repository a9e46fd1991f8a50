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

// A region mapped mid-run (mmap churn). BeginEpoch registers its metadata;
// the MmapAnon happens when the simulation drains the event, at the serial
// epoch boundary and before the epoch's batch executes (see DrainMapEvents),
// which also feeds churn accounting and trace capture.
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

  // Marks an epoch boundary. Sources with lifetime events register this
  // epoch's new regions here (num_regions() grows) and stage the events for
  // the drains.
  //
  // BeginEpoch and FillBatch never touch the address space. The simulation
  // begins epoch e+1 and starts its fill as soon as epoch e's accesses have
  // run, and finishes epoch e's policy stages — splits, migrations,
  // munmaps, all address-space work — while the fill is in flight
  // (DESIGN.md §3).
  virtual void BeginEpoch() = 0;

  // Appends up to `n` accesses for `thread` to `out` (cleared first).
  //
  // Concurrency contract: between BeginEpoch and the epoch's end, calls for
  // *distinct* threads may run concurrently, on whichever shard worker
  // claims the thread. A call may mutate only `thread`'s own state, and
  // that thread's stream must depend only on that state, so the batch is
  // the same whichever host thread builds it. Every other member is called
  // from one thread; while a fill is in flight, only DrainMapEvents, which
  // must not touch what FillBatch reads.
  virtual void FillBatch(int thread, std::size_t n, std::vector<WorkloadAccess>& out) = 0;

  // True once the stream is exhausted. Read once per epoch, after its
  // accesses ran and before the next BeginEpoch.
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

  // Lifetime events staged by the last BeginEpoch (empty for the synthetic
  // generators, whose regions live for the whole run). DrainMapEvents also
  // maps the new regions into the address space: the simulation calls it at
  // the epoch's serial boundary, after the previous epoch's unmaps, before
  // the epoch's batch executes. Unmap events are drained after the epoch's
  // accesses ran, before the next BeginEpoch, and the simulation applies
  // them at the epoch's end.
  virtual void DrainMapEvents(std::vector<RegionMapEvent>* out) { out->clear(); }
  virtual void DrainUnmapEvents(std::vector<RegionUnmapEvent>* out) { out->clear(); }
};

}  // namespace numalp

#endif  // NUMALP_SRC_WORKLOADS_ACCESS_SOURCE_H_
