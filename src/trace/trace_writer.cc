#include "src/trace/trace_writer.h"

#include <stdexcept>

namespace numalp::trace {

TraceWriter::TraceWriter(const std::string& path, const TraceHeader& header)
    : path_(path), header_(header) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("trace: cannot open for writing: " + path);
  }
  std::uint32_t version = kTraceVersion;
  if (std::fwrite(kTraceMagic, 1, sizeof(kTraceMagic), file_) != sizeof(kTraceMagic) ||
      std::fwrite(&version, sizeof(version), 1, file_) != 1) {
    throw std::runtime_error("trace: short write: " + path);
  }
  payload_.clear();
  PutString(payload_, header_.machine);
  PutString(payload_, header_.workload);
  PutU64(payload_, header_.seed);
  PutU32(payload_, header_.threads);
  PutU32(payload_, header_.accesses_per_thread_per_epoch);
  PutVarint(payload_, header_.regions.size());
  for (const auto& region : header_.regions) {
    PutRegion(payload_, region);
  }
  WriteChunk(payload_);
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) {
    try {
      Finish(/*completed=*/false);
    } catch (...) {
      // Destructors must not throw; an unfinished trace is already marked
      // incomplete by its missing/false trace-end chunk.
    }
  }
}

void TraceWriter::BeginEpoch(bool in_setup) {
  payload_.clear();
  PutU8(payload_, static_cast<std::uint8_t>(EventKind::kEpochBegin));
  PutU8(payload_, in_setup ? 1 : 0);
}

void TraceWriter::RegionMap(const RegionMapEvent& event) {
  PutU8(payload_, static_cast<std::uint8_t>(EventKind::kRegionMap));
  PutVarint(payload_, static_cast<std::uint64_t>(event.region));
  PutRegion(payload_, event.desc);
}

void TraceWriter::RegionUnmap(const RegionUnmapEvent& event) {
  PutU8(payload_, static_cast<std::uint8_t>(EventKind::kRegionUnmap));
  PutVarint(payload_, static_cast<std::uint64_t>(event.region));
  PutU64(payload_, event.base);
  PutVarint(payload_, event.bytes);
}

void TraceWriter::Batch(int thread, const std::vector<WorkloadAccess>& accesses) {
  PutBatch(payload_, thread, accesses);
}

void TraceWriter::AppendEncoded(const std::vector<std::uint8_t>& events) {
  payload_.insert(payload_.end(), events.begin(), events.end());
}

void TraceWriter::EndEpoch(bool done_after) {
  SealEpoch(done_after);
  WriteSealed();
}

void TraceWriter::SealEpoch(bool done_after) {
  WriteSealed();
  PutU8(payload_, static_cast<std::uint8_t>(EventKind::kEpochEnd));
  PutU8(payload_, done_after ? 1 : 0);
  payload_.swap(sealed_);  // payload_ takes the written chunk's capacity
}

void TraceWriter::WriteSealed() {
  if (!sealed_.empty()) {  // a sealed chunk holds at least its kEpochEnd
    WriteChunk(sealed_);
  }
}

void TraceWriter::Finish(bool completed) {
  if (file_ == nullptr) {
    return;
  }
  WriteSealed();
  payload_.clear();
  PutU8(payload_, static_cast<std::uint8_t>(EventKind::kTraceEnd));
  PutU8(payload_, completed ? 1 : 0);
  WriteChunk(payload_);
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) {
    throw std::runtime_error("trace: close failed: " + path_);
  }
}

void TraceWriter::WriteChunk(std::vector<std::uint8_t>& payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint64_t hash = Fnv1a(payload.data(), payload.size());
  if (std::fwrite(&len, sizeof(len), 1, file_) != 1 ||
      std::fwrite(&hash, sizeof(hash), 1, file_) != 1 ||
      (len != 0 && std::fwrite(payload.data(), 1, len, file_) != len)) {
    throw std::runtime_error("trace: short write: " + path_);
  }
  payload.clear();
}

}  // namespace numalp::trace
