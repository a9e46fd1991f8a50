// Records an access stream into the binary trace format (trace_format.h).
//
// The writer is fed at the simulation's *serial* commit points only — the
// per-epoch batch-fill loop runs single-threaded regardless of shard count or
// engine, so capture observes the identical stream at every jobs × shards ×
// engine combination and adds zero synchronization to the parallel slices
// (the bounded-overhead capture lesson: the recorder must not distort the
// workload being recorded).
#ifndef NUMALP_SRC_TRACE_TRACE_WRITER_H_
#define NUMALP_SRC_TRACE_TRACE_WRITER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/trace/trace_format.h"

namespace numalp::trace {

class TraceWriter {
 public:
  // Opens `path` and writes magic + version + the header chunk. Throws
  // std::runtime_error on I/O failure.
  TraceWriter(const std::string& path, const TraceHeader& header);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  const TraceHeader& header() const { return header_; }

  // One epoch = one chunk. Events accumulate in the payload buffer between
  // BeginEpoch and EndEpoch; EndEpoch frames and flushes the chunk.
  void BeginEpoch(bool in_setup);
  void RegionMap(const RegionMapEvent& event);
  void RegionUnmap(const RegionUnmapEvent& event);
  void Batch(int thread, const std::vector<WorkloadAccess>& accesses);
  // Appends events already encoded with the trace_format.h encoders (a
  // PutBatch buffer), so batches can be encoded off the writer's thread.
  void AppendEncoded(const std::vector<std::uint8_t>& events);
  void EndEpoch(bool done_after);

  // EndEpoch in two steps, so a caller can hash and write epoch e's chunk
  // while it builds epoch e+1: SealEpoch ends the epoch and sets its chunk
  // aside; WriteSealed frames and writes it. At most one chunk waits —
  // SealEpoch and Finish write a pending one first.
  void SealEpoch(bool done_after);
  void WriteSealed();

  // Writes the trace-end chunk and closes the file. Implicitly called (with
  // completed=false) by the destructor if the caller never finished.
  void Finish(bool completed);

 private:
  void WriteChunk(std::vector<std::uint8_t>& payload);

  std::string path_;
  TraceHeader header_;
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> sealed_;  // empty when no chunk waits
};

}  // namespace numalp::trace

#endif  // NUMALP_SRC_TRACE_TRACE_WRITER_H_
