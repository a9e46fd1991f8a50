// AccessSource that replays a recorded binary trace (DESIGN.md §14).
//
// The replayed stream is byte-identical to the captured one: batches come
// back exactly as recorded, region VMAs are re-created at the recorded bases
// (MmapAnon is deterministic for a fresh AddressSpace, which replay
// verifies), and the recorded setup/steady split and completion point are
// honored. Lifetime events make this the first source whose regions die
// mid-run: RegionUnmap events flow back to the simulation, which applies
// them through AddressSpace::MunmapRange — real frames return to the buddy
// allocator and long-lived churn fragments it organically. RegionMap
// events are mapped when the simulation drains them, at the same serial
// epoch boundary; BeginEpoch only registers the new regions' metadata.
#ifndef NUMALP_SRC_WORKLOADS_TRACE_WORKLOAD_H_
#define NUMALP_SRC_WORKLOADS_TRACE_WORKLOAD_H_

#include <string>
#include <vector>

#include "src/trace/trace_reader.h"
#include "src/vm/address_space.h"
#include "src/workloads/access_source.h"
#include "src/workloads/spec.h"

namespace numalp {

class TraceWorkload : public AccessSource {
 public:
  // Opens the trace and maps its epoch-0 region table into `address_space`
  // (which must be fresh: recorded bases are validated against the actual
  // MmapAnon results). Throws std::runtime_error on format errors or a
  // thread-count mismatch with the recorded machine.
  TraceWorkload(const std::string& path, AddressSpace& address_space, int num_threads);

  // Decodes the next recorded epoch and registers its new regions; maps
  // nothing (see DrainMapEvents).
  void BeginEpoch() override;
  // Copies the recorded batch out of the decoded epoch; reads `current_`
  // only, so concurrent fills for distinct threads are safe.
  void FillBatch(int thread, std::size_t n, std::vector<WorkloadAccess>& out) override;
  bool Done() const override;
  bool SetupDone() const override;

  int num_threads() const override { return num_threads_; }
  int num_regions() const override { return static_cast<int>(regions_.size()); }
  SourceRegion region(int r) const override {
    return regions_[static_cast<std::size_t>(r)];
  }
  std::uint64_t footprint_bytes() const override { return footprint_bytes_; }

  // Returns the epoch's RegionMap events and maps every region registered
  // since the last call at its recorded base; a base MmapAnon does not
  // reproduce throws std::runtime_error.
  void DrainMapEvents(std::vector<RegionMapEvent>* out) override;
  void DrainUnmapEvents(std::vector<RegionUnmapEvent>* out) override;

  const trace::TraceHeader& header() const { return reader_.header(); }

 private:
  // Registers region `region_id`'s metadata; ids must arrive in order and
  // stay below 256.
  void AddRegion(int region_id, const SourceRegion& desc);
  // MmapAnon for every registered region not yet mapped.
  void MapAddedRegions();

  trace::TraceReader reader_;
  AddressSpace& address_space_;
  int num_threads_ = 0;
  std::vector<SourceRegion> regions_;  // by id; unmapped ids keep their entry
  std::size_t mapped_regions_ = 0;     // regions_[0, mapped_regions_) have VMAs
  std::uint64_t footprint_bytes_ = 0;
  trace::TraceEpoch current_;
  trace::TraceEpoch next_;
  bool next_valid_ = false;
  bool started_ = false;    // BeginEpoch called at least once
  bool exhausted_ = false;  // replay ran past the recorded epochs
};

// Builds the WorkloadSpec for `--workload trace:FILE`: reads the header so
// the replayed rows keep the recorded workload name as their coordinate.
WorkloadSpec MakeTraceWorkloadSpec(const std::string& trace_file);

}  // namespace numalp

#endif  // NUMALP_SRC_WORKLOADS_TRACE_WORKLOAD_H_
