// Compact binary access-trace format (DESIGN.md §14).
//
// Layout: an 8-byte magic + u32 version, then a sequence of *chunks*, each
// framed as [u32 payload_len][u64 fnv1a(payload)][payload]. Chunk 0 is the
// header (machine/workload/seed provenance + the initial region table); every
// later chunk is one epoch (or the final trace-end marker). The per-chunk
// length prefix is what lets TraceReader bulk-ingest with large sequential
// reads and double-buffer chunks ahead of the epoch loop; the checksum makes
// truncation and corruption loud instead of silently replaying garbage.
//
// Epoch payloads are event sequences:
//   kEpochBegin  u8 in_setup
//   kRegionMap   varint region, u64 base, varint bytes, u8 flags,
//                f64 dram_intensity, f64 mlp
//   kRegionUnmap varint region, u64 base, varint bytes
//   kBatch       varint thread, varint count, then per access:
//                u8 region, varint((zigzag(va - prev_va) << 1) | write)
//   kEpochEnd    u8 done_after
//   kTraceEnd    u8 completed
//
// Accesses are delta-encoded against the previous VA of the same batch
// (access_index is implicit in position, the thread is the batch's): spatial
// locality makes most deltas fit in 1-3 varint bytes.
#ifndef NUMALP_SRC_TRACE_TRACE_FORMAT_H_
#define NUMALP_SRC_TRACE_TRACE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/workloads/access_source.h"

namespace numalp::trace {

inline constexpr char kTraceMagic[8] = {'N', 'U', 'M', 'A', 'L', 'P', 'T', 'R'};
inline constexpr std::uint32_t kTraceVersion = 1;
// Backstop against nonsense length prefixes in corrupt files.
inline constexpr std::uint32_t kMaxChunkBytes = 1u << 28;

enum class EventKind : std::uint8_t {
  kEpochBegin = 1,
  kRegionMap = 2,
  kRegionUnmap = 3,
  kBatch = 4,
  kEpochEnd = 5,
  kTraceEnd = 6,
};

// Versioned provenance: which cell produced this stream.
struct TraceHeader {
  std::string machine;
  std::string workload;
  std::uint64_t seed = 0;
  std::uint32_t threads = 0;
  std::uint32_t accesses_per_thread_per_epoch = 0;
  std::vector<SourceRegion> regions;  // regions live at epoch 0

  // The stable provenance tag carried into ResultRow.trace_source by both
  // the capturing run and every replay of the file.
  std::string Provenance() const {
    return workload + "@" + machine + "#" + std::to_string(seed);
  }
};

// One decoded epoch chunk.
struct TraceEpoch {
  bool trace_end = false;  // final marker chunk, not an epoch
  bool completed = false;  // valid when trace_end
  bool in_setup = false;
  bool done_after = false;
  std::vector<RegionMapEvent> maps;
  std::vector<RegionUnmapEvent> unmaps;
  // Indexed by thread; absent threads have empty batches.
  std::vector<std::vector<WorkloadAccess>> batches;
  // Highest region id any access in `batches` names; -1 with no accesses.
  // Replay checks it against the regions mapped so far.
  int max_region = -1;
};

inline std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// --- Encoding into a byte buffer -----------------------------------------

inline void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

inline void PutFixed(std::vector<std::uint8_t>& out, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + n);
}

inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  PutFixed(out, &v, sizeof(v));  // host order; the format is single-host
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  PutFixed(out, &v, sizeof(v));
}

inline void PutF64(std::vector<std::uint8_t>& out, double v) {
  PutFixed(out, &v, sizeof(v));
}

inline void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline void PutString(std::vector<std::uint8_t>& out, const std::string& s) {
  PutVarint(out, s.size());
  PutFixed(out, s.data(), s.size());
}

// One kBatch event: `thread`'s accesses, each VA delta-encoded against the
// previous one. TraceWriter::Batch and tracegen's parallel encode both use
// it, so a pre-encoded batch is byte-identical to one the writer encodes.
inline void PutBatch(std::vector<std::uint8_t>& out, int thread,
                     const std::vector<WorkloadAccess>& accesses) {
  PutU8(out, static_cast<std::uint8_t>(EventKind::kBatch));
  PutVarint(out, static_cast<std::uint64_t>(thread));
  PutVarint(out, accesses.size());
  Addr prev = 0;
  for (const auto& access : accesses) {
    PutU8(out, access.region);
    const std::int64_t delta =
        static_cast<std::int64_t>(access.va) - static_cast<std::int64_t>(prev);
    PutVarint(out, (ZigZag(delta) << 1) | (access.write ? 1 : 0));
    prev = access.va;
  }
}

// --- Decoding from a byte buffer -----------------------------------------

struct Cursor {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  bool AtEnd() const { return pos >= size; }
  void Need(std::size_t n) const {
    if (pos + n > size) {
      throw std::runtime_error("trace: truncated chunk payload");
    }
  }
  std::uint8_t U8() {
    Need(1);
    return data[pos++];
  }
  void Fixed(void* out, std::size_t n) {
    Need(n);
    std::memcpy(out, data + pos, n);
    pos += n;
  }
  std::uint32_t U32() {
    std::uint32_t v;
    Fixed(&v, sizeof(v));
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v;
    Fixed(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v;
    Fixed(&v, sizeof(v));
    return v;
  }
  std::uint64_t Varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t byte = U8();
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        return v;
      }
      shift += 7;
      if (shift >= 64) {
        throw std::runtime_error("trace: overlong varint");
      }
    }
  }
  std::string String() {
    const std::uint64_t n = Varint();
    Need(n);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

// --- Region descriptor packing -------------------------------------------

inline std::uint8_t RegionFlags(const SourceRegion& r) {
  std::uint8_t flags = r.thp_eligible ? 1 : 0;
  if (r.explicit_page.has_value()) {
    flags |= static_cast<std::uint8_t>((*r.explicit_page == PageSize::k2M ? 1 : 2) << 1);
  }
  return flags;
}

inline void ApplyRegionFlags(std::uint8_t flags, SourceRegion* r) {
  r->thp_eligible = (flags & 1) != 0;
  const std::uint8_t explicit_bits = (flags >> 1) & 3;
  if (explicit_bits == 1) {
    r->explicit_page = PageSize::k2M;
  } else if (explicit_bits == 2) {
    r->explicit_page = PageSize::k1G;
  } else {
    r->explicit_page.reset();
  }
}

inline void PutRegion(std::vector<std::uint8_t>& out, const SourceRegion& r) {
  PutU64(out, r.base);
  PutVarint(out, r.bytes);
  PutU8(out, RegionFlags(r));
  PutF64(out, r.dram_intensity);
  PutF64(out, r.mlp);
}

inline SourceRegion GetRegion(Cursor& cursor) {
  SourceRegion r;
  r.base = cursor.U64();
  r.bytes = cursor.Varint();
  ApplyRegionFlags(cursor.U8(), &r);
  r.dram_intensity = cursor.F64();
  r.mlp = cursor.F64();
  return r;
}

}  // namespace numalp::trace

#endif  // NUMALP_SRC_TRACE_TRACE_FORMAT_H_
