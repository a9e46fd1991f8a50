#include "src/workloads/trace_workload.h"

#include <algorithm>
#include <stdexcept>

namespace numalp {

TraceWorkload::TraceWorkload(const std::string& path, AddressSpace& address_space,
                             int num_threads)
    : reader_(path), address_space_(address_space), num_threads_(num_threads) {
  const trace::TraceHeader& header = reader_.header();
  if (static_cast<int>(header.threads) != num_threads) {
    throw std::runtime_error("trace: recorded for " + std::to_string(header.threads) +
                             " threads, machine has " + std::to_string(num_threads));
  }
  regions_.reserve(header.regions.size());
  for (std::size_t r = 0; r < header.regions.size(); ++r) {
    AddRegion(static_cast<int>(r), header.regions[r]);
  }
  MapAddedRegions();
  next_valid_ = reader_.NextEpoch(&next_);
}

void TraceWorkload::AddRegion(int region_id, const SourceRegion& desc) {
  // Region ids travel as one byte per access.
  if (region_id != static_cast<int>(regions_.size()) || region_id >= 256) {
    throw std::runtime_error("trace: non-sequential or overflowing region id");
  }
  regions_.push_back(desc);
  footprint_bytes_ += desc.bytes;
}

void TraceWorkload::MapAddedRegions() {
  for (; mapped_regions_ < regions_.size(); ++mapped_regions_) {
    const SourceRegion& desc = regions_[mapped_regions_];
    VmaOptions opts;
    opts.name = "trace-region-" + std::to_string(mapped_regions_);
    opts.thp_eligible = desc.thp_eligible;
    opts.explicit_page = desc.explicit_page;
    if (address_space_.MmapAnon(desc.bytes, opts) != desc.base) {
      // MmapAnon is deterministic, so this only happens when the address
      // space is not fresh — replay composed with something else that mmaps
      // first — or when a crafted trace records another base.
      throw std::runtime_error("trace: replayed VMA base mismatch (address space not fresh)");
    }
  }
}

bool TraceWorkload::SetupDone() const {
  if (!next_valid_) {
    return true;
  }
  return !next_.in_setup;
}

void TraceWorkload::BeginEpoch() {
  started_ = true;
  if (!next_valid_) {
    // Replay configured for more epochs than were recorded: emit an empty
    // final epoch and report Done after it.
    exhausted_ = true;
    current_ = trace::TraceEpoch{};
    current_.done_after = true;
    return;
  }
  current_ = std::move(next_);
  for (const auto& event : current_.maps) {
    AddRegion(event.region, event.desc);
  }
  // The checksum is not a MAC: a crafted file can name a region that does
  // not exist, and the engine indexes its per-region cost tables by it.
  if (current_.max_region >= num_regions()) {
    throw std::runtime_error("trace: access names region " +
                             std::to_string(current_.max_region) + " but only " +
                             std::to_string(num_regions()) + " regions are mapped");
  }
  next_valid_ = reader_.NextEpoch(&next_);
}

void TraceWorkload::FillBatch(int thread, std::size_t n,
                              std::vector<WorkloadAccess>& out) {
  out.clear();
  const auto t = static_cast<std::size_t>(thread);
  if (t >= current_.batches.size()) {
    return;
  }
  const auto& batch = current_.batches[t];
  const std::size_t count = std::min(n, batch.size());
  out.assign(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(count));
}

bool TraceWorkload::Done() const {
  if (exhausted_) {
    return true;
  }
  return started_ && current_.done_after;
}

void TraceWorkload::DrainMapEvents(std::vector<RegionMapEvent>* out) {
  *out = current_.maps;
  MapAddedRegions();
}

void TraceWorkload::DrainUnmapEvents(std::vector<RegionUnmapEvent>* out) {
  *out = current_.unmaps;
}

WorkloadSpec MakeTraceWorkloadSpec(const std::string& trace_file) {
  const trace::TraceHeader header = trace::ReadTraceHeader(trace_file);
  WorkloadSpec spec;
  spec.name = header.workload;
  spec.trace_file = trace_file;
  return spec;
}

}  // namespace numalp
