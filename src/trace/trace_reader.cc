#include "src/trace/trace_reader.h"

#include <algorithm>
#include <stdexcept>

namespace numalp::trace {
namespace {

void DecodeHeader(const std::vector<std::uint8_t>& payload, TraceHeader* out) {
  Cursor cursor{payload.data(), payload.size(), 0};
  out->machine = cursor.String();
  out->workload = cursor.String();
  out->seed = cursor.U64();
  out->threads = cursor.U32();
  out->accesses_per_thread_per_epoch = cursor.U32();
  const std::uint64_t region_count = cursor.Varint();
  if (region_count > 256) {
    throw std::runtime_error("trace: implausible region count in header");
  }
  out->regions.clear();
  out->regions.reserve(region_count);
  for (std::uint64_t r = 0; r < region_count; ++r) {
    out->regions.push_back(GetRegion(cursor));
  }
}

bool IsTraceEnd(const std::vector<std::uint8_t>& payload) {
  return !payload.empty() &&
         payload[0] == static_cast<std::uint8_t>(EventKind::kTraceEnd);
}

}  // namespace

TraceReader::TraceReader(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("trace: cannot open: " + path);
  }
  char magic[sizeof(kTraceMagic)];
  std::uint32_t version = 0;
  if (std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic) ||
      std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("trace: bad magic: " + path);
  }
  if (std::fread(&version, sizeof(version), 1, file_) != 1 || version != kTraceVersion) {
    throw std::runtime_error("trace: unsupported version: " + path);
  }
  std::vector<std::uint8_t> header_chunk;
  ReadChunkInto(&header_chunk);
  DecodeHeader(header_chunk, &header_);
  // Prime the double buffer: the chunk the first NextEpoch will decode, plus
  // — unless that chunk is already the end marker — the one after it.
  ReadChunkInto(&front_);
  if (!IsTraceEnd(front_)) {
    ReadChunkInto(&back_);
  }
}

TraceReader::~TraceReader() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool TraceReader::NextEpoch(TraceEpoch* out) {
  *out = TraceEpoch{};
  if (end_seen_) {
    out->trace_end = true;
    out->completed = completed_;
    return false;
  }
  DecodeEpoch(front_, out);
  if (out->trace_end) {
    end_seen_ = true;
    completed_ = out->completed;
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    return false;
  }
  // Rotate the double buffer: the prefetched back chunk becomes current, and
  // unless it is the end marker the next chunk is read behind it.
  std::swap(front_, back_);
  back_.clear();
  if (!IsTraceEnd(front_)) {
    ReadChunkInto(&back_);
  }
  return true;
}

void TraceReader::ReadChunkInto(std::vector<std::uint8_t>* buffer) {
  std::uint32_t len = 0;
  std::uint64_t hash = 0;
  if (std::fread(&len, sizeof(len), 1, file_) != 1 ||
      std::fread(&hash, sizeof(hash), 1, file_) != 1) {
    throw std::runtime_error("trace: truncated (missing chunk frame): " + path_);
  }
  if (len > kMaxChunkBytes) {
    throw std::runtime_error("trace: corrupt chunk length: " + path_);
  }
  buffer->resize(len);
  if (len != 0 && std::fread(buffer->data(), 1, len, file_) != len) {
    throw std::runtime_error("trace: truncated chunk: " + path_);
  }
  if (Fnv1a(buffer->data(), buffer->size()) != hash) {
    throw std::runtime_error("trace: chunk checksum mismatch: " + path_);
  }
}

void TraceReader::DecodeEpoch(const std::vector<std::uint8_t>& payload,
                              TraceEpoch* out) const {
  Cursor cursor{payload.data(), payload.size(), 0};
  bool begun = false;
  while (!cursor.AtEnd()) {
    const auto kind = static_cast<EventKind>(cursor.U8());
    switch (kind) {
      case EventKind::kTraceEnd:
        out->trace_end = true;
        out->completed = cursor.U8() != 0;
        return;
      case EventKind::kEpochBegin:
        begun = true;
        out->in_setup = cursor.U8() != 0;
        break;
      case EventKind::kRegionMap: {
        RegionMapEvent event;
        event.region = static_cast<int>(cursor.Varint());
        event.desc = GetRegion(cursor);
        out->maps.push_back(event);
        break;
      }
      case EventKind::kRegionUnmap: {
        RegionUnmapEvent event;
        event.region = static_cast<int>(cursor.Varint());
        event.base = cursor.U64();
        event.bytes = cursor.Varint();
        out->unmaps.push_back(event);
        break;
      }
      case EventKind::kBatch: {
        const std::uint64_t thread = cursor.Varint();
        if (thread >= header_.threads) {
          throw std::runtime_error("trace: batch for out-of-range thread: " + path_);
        }
        const std::uint64_t count = cursor.Varint();
        // Every access is >= 2 encoded bytes; a count past that bound is a
        // corrupt varint, not a big batch.
        if (count > (cursor.size - cursor.pos + 1) / 2) {
          throw std::runtime_error("trace: corrupt batch count: " + path_);
        }
        if (out->batches.size() <= thread) {
          out->batches.resize(static_cast<std::size_t>(header_.threads));
        }
        auto& batch = out->batches[thread];
        batch.clear();
        batch.reserve(count);
        Addr prev = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
          WorkloadAccess access;
          access.region = cursor.U8();
          out->max_region = std::max(out->max_region, static_cast<int>(access.region));
          const std::uint64_t packed = cursor.Varint();
          access.write = (packed & 1) != 0;
          access.va = static_cast<Addr>(static_cast<std::int64_t>(prev) +
                                        UnZigZag(packed >> 1));
          prev = access.va;
          batch.push_back(access);
        }
        break;
      }
      case EventKind::kEpochEnd:
        if (!begun) {
          throw std::runtime_error("trace: epoch chunk without EpochBegin: " + path_);
        }
        out->done_after = cursor.U8() != 0;
        return;
      default:
        throw std::runtime_error("trace: unknown event kind: " + path_);
    }
    if (!begun) {
      throw std::runtime_error("trace: epoch chunk without EpochBegin: " + path_);
    }
  }
  throw std::runtime_error("trace: epoch chunk without EpochEnd: " + path_);
}

TraceHeader ReadTraceHeader(const std::string& path) {
  TraceReader reader(path);
  return reader.header();
}

}  // namespace numalp::trace
