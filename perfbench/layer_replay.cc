#include "perfbench/layer_replay.h"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "src/carrefour/carrefour.h"
#include "src/common/rng.h"
#include "src/hw/ibs.h"
#include "src/hw/tlb.h"
#include "src/mem/buddy_allocator.h"
#include "src/mem/phys_mem.h"
#include "src/metrics/sample_window.h"
#include "src/vm/address_space.h"
#include "src/vm/thp.h"
#include "src/workloads/access_source.h"
#include "src/workloads/trace_workload.h"
#include "src/workloads/workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Adds the wall time of fn() to *total.
template <typename Fn>
void Timed(double* total, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  *total += std::chrono::duration<double>(Clock::now() - start).count();
}

// The engine's round-robin thread pinning (thread t on CPU node t % N).
std::vector<int> CoreOfThread(const numalp::Topology& topo) {
  const std::vector<int>& cpu = topo.cpu_nodes();
  const int n = static_cast<int>(cpu.size());
  std::vector<int> cores(static_cast<std::size_t>(topo.num_cores()));
  for (int t = 0; t < topo.num_cores(); ++t) {
    cores[static_cast<std::size_t>(t)] =
        topo.node(cpu[static_cast<std::size_t>(t % n)]).first_core + t / n;
  }
  return cores;
}

// The engine's sample-window epoch cap and round-robin slice length
// (simulation.h), and the allocator probe's size per node and order.
constexpr std::size_t kWindowEpochs = 512;
constexpr std::size_t kSliceAccesses = 32;
constexpr int kProbePairs = 256;

}  // namespace

void ReplayCell(const numalp::RunSpec& spec, int epochs, LayerTimes* times) {
  const numalp::Topology& topo = spec.topo;
  const numalp::SimConfig& sim = spec.sim;
  const int cores = topo.num_cores();
  numalp::PhysicalMemory phys(topo);
  numalp::ThpState thp;
  thp.alloc_enabled = spec.policy.initial_thp_alloc;
  thp.promote_enabled = spec.policy.initial_thp_promote;
  numalp::AddressSpace space(phys, topo, thp);

  const bool is_trace = !spec.workload.trace_file.empty();
  std::unique_ptr<numalp::AccessSource> source;
  if (is_trace) {
    source = std::make_unique<numalp::TraceWorkload>(spec.workload.trace_file, space, cores);
  } else {
    source = std::make_unique<numalp::Workload>(spec.workload, space, cores, sim.seed);
  }

  std::vector<numalp::Tlb> tlbs;
  tlbs.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    tlbs.emplace_back(sim.tlb);
  }
  std::vector<numalp::AddressSpace::TranslationCache> caches(static_cast<std::size_t>(cores));
  std::vector<std::vector<numalp::WorkloadAccess>> batches(static_cast<std::size_t>(cores));
  const std::vector<int> core_of_thread = CoreOfThread(topo);
  numalp::IbsEngine ibs(topo.num_nodes(), cores, sim.ibs_interval, sim.seed ^ 0x1b5u);
  numalp::Rng rng(sim.seed ^ 0x7777u);
  numalp::SampleWindow window(kWindowEpochs);
  numalp::Carrefour carrefour(spec.policy.carrefour, topo.cpu_nodes(), sim.seed ^ 0xc4fu);
  const bool window_consumed =
      spec.policy.use_carrefour || spec.policy.use_reactive || spec.policy.use_conservative;
  std::vector<double> intensity;
  std::vector<numalp::RegionMapEvent> map_events;
  std::vector<numalp::RegionUnmapEvent> unmap_events;
  bool steady = false;
  const std::size_t batch_size = sim.accesses_per_thread_per_epoch;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    const bool in_setup = !source->SetupDone();
    if (!in_setup && !steady) {
      // The engine's setup->steady transition.
      steady = true;
      window.Clear();
      carrefour.ForgetAll();
    }
    Timed(is_trace ? &times->decode_s : &times->fill_s, [&] { source->BeginEpoch(); });
    source->DrainMapEvents(&map_events);
    for (int r = static_cast<int>(intensity.size()); r < source->num_regions(); ++r) {
      intensity.push_back(source->region(r).dram_intensity);
    }
    Timed(&times->fill_s, [&] {
      for (int t = 0; t < cores; ++t) {
        source->FillBatch(t, batch_size,
                          batches[static_cast<std::size_t>(core_of_thread[static_cast<std::size_t>(t)])]);
      }
    });
    std::uint64_t epoch_accesses = 0;
    for (const auto& batch : batches) {
      epoch_accesses += batch.size();
    }
    times->accesses += epoch_accesses;

    if (in_setup) {
      // First touches in the engine's round-robin slice order, so the
      // first-touch races land pages on the same nodes.
      Timed(&times->fault_s, [&] {
        for (std::size_t offset = 0; offset < batch_size; offset += kSliceAccesses) {
          for (int t = 0; t < cores; ++t) {
            const int core = core_of_thread[static_cast<std::size_t>(t)];
            const auto& batch = batches[static_cast<std::size_t>(core)];
            const std::size_t end = std::min(offset + kSliceAccesses, batch.size());
            const int node = topo.NodeOfCore(core);
            for (std::size_t i = offset; i < end; ++i) {
              if (space.Touch(batch[i].va, node).fault.has_value()) {
                ++times->setup_faults;
              }
            }
          }
        }
      });
    }

    Timed(&times->hw_s, [&] {
      const std::uint64_t interval = ibs.interval();
      for (int c = 0; c < cores; ++c) {
        const int node = topo.NodeOfCore(c);
        numalp::Tlb& tlb = tlbs[static_cast<std::size_t>(c)];
        numalp::AddressSpace::TranslationCache& cache = caches[static_cast<std::size_t>(c)];
        std::uint64_t& countdown = ibs.countdown(c);
        for (const numalp::WorkloadAccess& access : batches[static_cast<std::size_t>(c)]) {
          const numalp::TlbLookup hit = tlb.Lookup(access.va);
          int home = hit.node;
          if (hit.level == numalp::TlbHitLevel::kMiss) {
            auto mapping = space.Translate(access.va, cache);
            if (!mapping.has_value()) {
              mapping = space.Touch(access.va, node).mapping;
            }
            tlb.Insert(mapping->page_base, mapping->size, mapping->pfn, mapping->node);
            home = mapping->node;
          }
          const bool dram = rng.Bernoulli(intensity[access.region]);
          if (--countdown == 0) {
            countdown = interval;
            ibs.Sample(access.va, c, node, home, dram);
          }
        }
      }
    });
    times->lookups += epoch_accesses;

    std::vector<numalp::IbsSample> fresh = ibs.Drain();
    if (window_consumed) {
      times->samples += fresh.size();
      Timed(&times->push_s, [&] { window.PushEpoch(std::move(fresh)); });
      numalp::PageAggMap pages;
      Timed(&times->fold_s, [&] { pages = window.FoldToMapping(space); });
      ++times->folds;
      times->fold_pages += pages.size();
      if (spec.policy.use_carrefour) {
        std::vector<numalp::CarrefourAction> plan;
        Timed(&times->plan_s, [&] { plan = carrefour.Plan(pages, epoch); });
        ++times->plans;
        times->actions += plan.size();
        Timed(&times->migrate_s, [&] {
          for (const numalp::CarrefourAction& action : plan) {
            if (const auto moved = space.MigratePage(action.page_base, action.target_node)) {
              for (numalp::Tlb& tlb : tlbs) {
                tlb.InvalidatePage(moved->page_base, moved->size);
              }
            }
          }
        });
      }
    }

    source->DrainUnmapEvents(&unmap_events);
    Timed(&times->munmap_s, [&] {
      for (const numalp::RegionUnmapEvent& event : unmap_events) {
        times->munmap_bytes += space.MunmapRange(event.base, event.bytes).freed_bytes;
        for (numalp::Tlb& tlb : tlbs) {
          tlb.InvalidateRange(event.base, event.bytes);
        }
      }
    });
    if (source->Done()) {
      break;
    }
  }

  // mem: single-frame and 2MB allocations against the free lists the run left.
  for (int n = 0; n < phys.num_nodes(); ++n) {
    numalp::BuddyAllocator& allocator = phys.mutable_node_allocator(n);
    Timed(&times->alloc_s, [&] {
      for (int i = 0; i < kProbePairs; ++i) {
        for (const int order : {0, 9}) {
          if (const auto pfn = allocator.Alloc(order)) {
            allocator.Free(*pfn, order);
          }
        }
      }
    });
    times->alloc_pairs += 2 * kProbePairs;
  }
}

}  // namespace perfbench
