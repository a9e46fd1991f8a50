// Hardware performance counters: per-core and per-node event counts gathered
// each epoch, mirroring what the paper reads from the AMD PMU (L2 misses from
// page-table walks, memory-controller request rates, local/remote DRAM
// accesses) plus the OS-side fault accounting.
#ifndef NUMALP_SRC_HW_COUNTERS_H_
#define NUMALP_SRC_HW_COUNTERS_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/topo/topology.h"

namespace numalp {

struct CoreCounters {
  std::uint64_t accesses = 0;
  std::uint64_t dram_local = 0;
  std::uint64_t dram_remote = 0;
  std::uint64_t tlb_l1_miss = 0;  // missed L1, any outcome
  std::uint64_t tlb_l2_hit = 0;
  std::uint64_t tlb_walks = 0;    // full walks (L2 missed too)
  std::uint64_t walk_l2_miss = 0; // leaf PTE fetches that missed L2
  std::uint64_t faults_4k = 0;
  std::uint64_t faults_2m = 0;
  std::uint64_t faults_1g = 0;
  std::uint64_t fault_bytes = 0;
  Cycles exec_cycles = 0;   // compute + TLB + walk cycles (DRAM added at epoch end)
  Cycles dram_cycles = 0;   // filled in by the epoch-end latency resolution
  Cycles fault_cycles = 0;  // page-fault handler time

  void Accumulate(const CoreCounters& other);
  std::uint64_t dram_accesses() const { return dram_local + dram_remote; }
  Cycles total_cycles() const { return exec_cycles + dram_cycles + fault_cycles; }
};

struct EpochCounters {
  explicit EpochCounters(int num_cores, int num_nodes);

  void Reset();

  std::vector<CoreCounters> cores;
  // DRAM requests per memory controller (the imbalance metric's input).
  std::vector<std::uint64_t> node_requests;
  // Remote DRAM requests arriving at each node (interconnect congestion).
  std::vector<std::uint64_t> node_incoming_remote;
  // Requests issued by core c to node n; resolved into dram_cycles at epoch
  // end once controller latencies are known.
  std::vector<std::vector<std::uint64_t>> core_node_requests;

  // One pass over core_node_requests: sets each core's dram_cycles from the
  // controller `latencies` plus each node's flat far-memory premium
  // (DESIGN.md Section 13) and the [src][dst] `remote` hop latencies, and
  // returns the mean extra cost of a remote request over a local one at its
  // requester, floored at `hop_floor` (also the value with no remote traffic).
  Cycles ResolveDramCycles(const Topology& topo, std::vector<Cycles> latencies,
                           const std::vector<std::vector<Cycles>>& remote, Cycles hop_floor);

  std::uint64_t TotalAccesses() const;
  std::uint64_t TotalDram() const;
  std::uint64_t TotalLocal() const;
  std::uint64_t TotalWalkL2Miss() const;
  std::uint64_t TotalFaults() const;
};

}  // namespace numalp

#endif  // NUMALP_SRC_HW_COUNTERS_H_
