// Phase-structured trace synthesis (DESIGN.md §14).
//
// Generates binary traces from embedded phase profiles modeled on real DL
// and HPC applications: a shared hot working set (weights / force tables)
// plus streaming activations, punctuated by mmap-lifetime churn — checkpoint
// buffers and shuffle/data-loader double buffers that are mapped, streamed
// through once, and unmapped, each leaving a small retained log/metadata
// region pinned behind it. The retained pages puncture otherwise-coalescable
// 2MB frames, so replaying the churn fragments the buddy allocator for real
// (the paper's abstracted-away THP pathology). Footprints scale with the
// target machine's DRAM, so any preset (including Tiny, for tests) works.
#ifndef NUMALP_SRC_TRACE_TRACEGEN_H_
#define NUMALP_SRC_TRACE_TRACEGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/topo/topology.h"

namespace numalp::trace {

struct TracegenOptions {
  std::string profile;  // one of TracegenProfiles()
  Topology topo = Topology::MachineA();
  std::uint64_t seed = 42;
  std::uint32_t accesses_per_thread = 4096;  // per epoch, must match replay
  // 0 = the profile's default duration. Smoke harnesses shrink this; the
  // phase schedule compresses proportionally.
  int epochs = 0;
};

// Embedded profile names: "ckpt-churn" (the flagship checkpoint-storm
// profile the trace_replay claim's mmap-churn check runs on), "bert",
// "resnet50", "lammps", "namd".
const std::vector<std::string>& TracegenProfiles();

// Synthesizes the trace into `out_path`. The recorded workload name is
// "trace:<profile>" and the recorded machine/threads are the preset's.
// Batches are filled and encoded on a worker pool of one worker per thread,
// at most the host's hardware concurrency; the bytes do not depend on it.
// Throws std::runtime_error on unknown profile or I/O failure.
void GenerateTrace(const TracegenOptions& options, const std::string& out_path);

namespace detail {
// GenerateTrace on exactly `workers` pool workers, past the host clamp:
// tests use it to show that the bytes do not depend on the worker count.
void GenerateTrace(const TracegenOptions& options, const std::string& out_path, int workers);
}  // namespace detail

}  // namespace numalp::trace

#endif  // NUMALP_SRC_TRACE_TRACEGEN_H_
