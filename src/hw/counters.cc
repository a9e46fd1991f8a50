#include "src/hw/counters.h"

#include <algorithm>

namespace numalp {

void CoreCounters::Accumulate(const CoreCounters& other) {
  accesses += other.accesses;
  dram_local += other.dram_local;
  dram_remote += other.dram_remote;
  tlb_l1_miss += other.tlb_l1_miss;
  tlb_l2_hit += other.tlb_l2_hit;
  tlb_walks += other.tlb_walks;
  walk_l2_miss += other.walk_l2_miss;
  faults_4k += other.faults_4k;
  faults_2m += other.faults_2m;
  faults_1g += other.faults_1g;
  fault_bytes += other.fault_bytes;
  exec_cycles += other.exec_cycles;
  dram_cycles += other.dram_cycles;
  fault_cycles += other.fault_cycles;
}

EpochCounters::EpochCounters(int num_cores, int num_nodes)
    : cores(static_cast<std::size_t>(num_cores)),
      node_requests(static_cast<std::size_t>(num_nodes), 0),
      node_incoming_remote(static_cast<std::size_t>(num_nodes), 0),
      core_node_requests(static_cast<std::size_t>(num_cores),
                         std::vector<std::uint64_t>(static_cast<std::size_t>(num_nodes), 0)) {}

void EpochCounters::Reset() {
  for (auto& core : cores) {
    core = CoreCounters{};
  }
  for (auto& r : node_requests) {
    r = 0;
  }
  for (auto& r : node_incoming_remote) {
    r = 0;
  }
  for (auto& row : core_node_requests) {
    for (auto& r : row) {
      r = 0;
    }
  }
}

Cycles EpochCounters::ResolveDramCycles(const Topology& topo, std::vector<Cycles> latencies,
                                        const std::vector<std::vector<Cycles>>& remote,
                                        Cycles hop_floor) {
  for (std::size_t n = 0; n < latencies.size(); ++n) {
    latencies[n] += topo.node(static_cast<int>(n)).extra_latency;
  }
  double premium_sum = 0.0;
  std::uint64_t remote_requests = 0;
  for (std::size_t c = 0; c < cores.size(); ++c) {
    const auto node = static_cast<std::size_t>(topo.NodeOfCore(static_cast<int>(c)));
    Cycles dram_cycles = 0;
    for (std::size_t n = 0; n < latencies.size(); ++n) {
      const std::uint64_t requests = core_node_requests[c][n];
      if (requests == 0) {
        continue;
      }
      Cycles per_request = latencies[n];
      if (n != node) {
        per_request += remote[node][n];
        remote_requests += requests;
        premium_sum += static_cast<double>(requests) *
                       (static_cast<double>(remote[node][n]) +
                        static_cast<double>(latencies[n]) - static_cast<double>(latencies[node]));
      }
      dram_cycles += requests * per_request;
    }
    cores[c].dram_cycles = dram_cycles;
  }
  const double floor = static_cast<double>(hop_floor);
  return static_cast<Cycles>(
      remote_requests == 0 ? floor
                           : std::max(floor, premium_sum / static_cast<double>(remote_requests)));
}

std::uint64_t EpochCounters::TotalAccesses() const {
  std::uint64_t total = 0;
  for (const auto& core : cores) {
    total += core.accesses;
  }
  return total;
}

std::uint64_t EpochCounters::TotalDram() const {
  std::uint64_t total = 0;
  for (const auto& core : cores) {
    total += core.dram_accesses();
  }
  return total;
}

std::uint64_t EpochCounters::TotalLocal() const {
  std::uint64_t total = 0;
  for (const auto& core : cores) {
    total += core.dram_local;
  }
  return total;
}

std::uint64_t EpochCounters::TotalWalkL2Miss() const {
  std::uint64_t total = 0;
  for (const auto& core : cores) {
    total += core.walk_l2_miss;
  }
  return total;
}

std::uint64_t EpochCounters::TotalFaults() const {
  std::uint64_t total = 0;
  for (const auto& core : cores) {
    total += core.faults_4k + core.faults_2m + core.faults_1g;
  }
  return total;
}

}  // namespace numalp
