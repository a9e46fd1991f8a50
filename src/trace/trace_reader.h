// Bulk-ingesting reader for the binary trace format (trace_format.h).
//
// Chunks carry explicit lengths, so the reader never scans for record
// boundaries: NextEpoch issues one large sequential read per chunk (the
// bulk-scan ingest idiom) into a single reused buffer and decodes it, so file
// I/O happens in chunk-sized slabs off the per-access path. Reading ahead is
// left to the caller: TraceWorkload decodes one epoch ahead.
//
// Corruption handling is strict: a bad magic/version, a checksum mismatch, an
// oversized length prefix, or a truncated chunk all throw std::runtime_error.
#ifndef NUMALP_SRC_TRACE_TRACE_READER_H_
#define NUMALP_SRC_TRACE_TRACE_READER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/trace/trace_format.h"

namespace numalp::trace {

class TraceReader {
 public:
  // Opens `path`, validates magic/version and decodes the header chunk.
  // Throws std::runtime_error on any I/O or format error.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  const TraceHeader& header() const { return header_; }

  // Reads and decodes the next chunk into *out; a corrupt or truncated
  // chunk throws std::runtime_error. Returns false (with out->trace_end
  // set) once the trace-end marker is reached; after that every call
  // returns false.
  bool NextEpoch(TraceEpoch* out);

  // Valid once NextEpoch returned false: did the recorded run complete?
  bool completed() const { return completed_; }

 private:
  // Reads one framed chunk into `buffer` (checksum-verified).
  void ReadChunkInto(std::vector<std::uint8_t>* buffer);
  void DecodeEpoch(const std::vector<std::uint8_t>& payload, TraceEpoch* out) const;

  std::string path_;
  TraceHeader header_;
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> chunk_;
  bool end_seen_ = false;
  bool completed_ = false;
};

// Reads and returns just the header of `path` (provenance for option
// parsing and replay validation) without ingesting the stream.
TraceHeader ReadTraceHeader(const std::string& path);

}  // namespace numalp::trace

#endif  // NUMALP_SRC_TRACE_TRACE_READER_H_
