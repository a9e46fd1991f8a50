// Microbenchmarks of the simulator substrates (google-benchmark): buddy
// allocator, page-table map/lookup/split, TLB lookups, the end-to-end
// per-access cost of the simulation engine, and the ExperimentRunner's grid
// dispatch. These guard the simulator's own performance (a full Figure-1
// sweep runs ~2,500 simulated epochs).
//
// This binary measures the simulator, not the paper, so it does not emit
// ResultRows: structured output comes from google-benchmark itself
// (--benchmark_format=json|csv, --benchmark_out=FILE), which numalp_report
// deliberately does not aggregate.
#include <benchmark/benchmark.h>

#include "src/core/runner.h"

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/core/config.h"
#include "src/core/simulation.h"
#include "src/hw/tlb.h"
#include "src/mem/buddy_allocator.h"
#include "src/mem/phys_mem.h"
#include "src/topo/topology.h"
#include "src/vm/address_space.h"
#include "src/vm/page_table.h"

namespace {

void BM_BuddyAllocFree4K(benchmark::State& state) {
  numalp::BuddyAllocator buddy(0, 1 << 18);
  std::vector<numalp::Pfn> held;
  held.reserve(1024);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      held.push_back(*buddy.Alloc(0));
    }
    for (numalp::Pfn pfn : held) {
      buddy.Free(pfn, 0);
    }
    held.clear();
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_BuddyAllocFree4K);

void BM_PageTableMapLookup(benchmark::State& state) {
  const numalp::Topology topo = numalp::Topology::Tiny();
  numalp::PhysicalMemory phys(topo);
  numalp::PageTable table(phys, 0);
  for (int i = 0; i < 4096; ++i) {
    table.Map(static_cast<numalp::Addr>(i) * numalp::kBytes4K, 100, numalp::PageSize::k4K);
  }
  numalp::Rng rng(7);
  for (auto _ : state) {
    const numalp::Addr va = rng.Uniform(4096) * numalp::kBytes4K;
    benchmark::DoNotOptimize(table.Lookup(va));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableMapLookup);

// The SWAR probe and rank-byte LRU on a warm 64-page working set.
void BM_TlbLookup(benchmark::State& state) {
  numalp::Tlb tlb(numalp::TlbConfig{});
  for (int i = 0; i < 64; ++i) {
    tlb.Insert(static_cast<numalp::Addr>(i) * numalp::kBytes4K, numalp::PageSize::k4K, 1, 0);
  }
  numalp::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(rng.Uniform(128) * numalp::kBytes4K));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

// The zipf batch API against per-call sampling (identical output streams).
void BM_ZipfSampleRun(benchmark::State& state) {
  const numalp::ZipfSampler zipf(1 << 16, 0.8);
  numalp::Rng rng(7);
  std::uint64_t out[256];
  for (auto _ : state) {
    if (state.range(0) != 0) {
      for (std::uint64_t& sample : out) {
        sample = zipf.Sample(rng);
      }
    } else {
      zipf.SampleRun(rng, out, 256);
    }
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ZipfSampleRun)->Arg(0)->Arg(1);

void BM_SimulatedEpoch(benchmark::State& state) {
  const numalp::Topology topo = numalp::Topology::Tiny();
  numalp::SimConfig sim;
  sim.max_epochs = 1;
  const numalp::WorkloadSpec spec =
      numalp::MakeWorkloadSpec(numalp::BenchmarkId::kBT_B, topo);
  for (auto _ : state) {
    numalp::Simulation simulation(topo, spec,
                                  numalp::MakePolicyConfig(numalp::PolicyKind::kThp), sim);
    benchmark::DoNotOptimize(simulation.Run());
  }
  state.SetItemsProcessed(state.iterations() * topo.num_cores() *
                          static_cast<std::int64_t>(sim.accesses_per_thread_per_epoch));
}
BENCHMARK(BM_SimulatedEpoch);

// Grid dispatch overhead: a Tiny-machine grid of 2 policies x 2 seeds (6
// cells with baselines) through the full RunGrid path at a given job count.
void BM_ExperimentRunnerGrid(benchmark::State& state) {
  numalp::ExperimentGrid grid;
  grid.machines = {numalp::Topology::Tiny()};
  grid.workloads = {numalp::BenchmarkId::kBT_B};
  grid.policies = {numalp::PolicyKind::kThp, numalp::PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim.max_epochs = 1;
  const numalp::ExperimentRunner runner(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(numalp::RunGrid(grid, runner));
  }
  state.SetItemsProcessed(state.iterations() * 6);
}
BENCHMARK(BM_ExperimentRunnerGrid)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
