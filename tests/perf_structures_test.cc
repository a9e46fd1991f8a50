// Correctness of the hot-path performance structures: the flat map against
// std::unordered_map, the incremental sample window against full
// re-aggregation (across splits / promotions / migrations and the window
// boundary), the TLB and access generator against their seed oracles
// (tests/oracles/), ranged TLB shootdowns against per-page loops, the pooled
// page table, the translate cache, and whole-engine bit-identity across
// shards, profile modes and the pure serial loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/hw/tlb.h"
#include "src/metrics/numa_metrics.h"
#include "src/metrics/sample_window.h"
#include "src/report/result_row.h"
#include "src/topo/topology.h"
#include "src/trace/tracegen.h"
#include "src/vm/address_space.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"
#include "tests/oracles/identity.h"
#include "tests/oracles/per_call_generator.h"
#include "tests/oracles/scalar_tlb.h"
#include "tests/oracles/serial_engine.h"

namespace numalp {
namespace {

VmaOptions MakeNoThpOpts() {
  VmaOptions opts;
  opts.thp_eligible = false;
  return opts;
}

// ---------------------------------------------------------------------------
// FlatMap vs std::unordered_map golden equivalence.
// ---------------------------------------------------------------------------

TEST(FlatMapTest, MirrorsUnorderedMapUnderRandomChurn) {
  FlatMap<Addr, std::uint64_t> flat;
  std::unordered_map<Addr, std::uint64_t> reference;
  Rng rng(7);
  for (int op = 0; op < 20000; ++op) {
    const Addr key = rng.Uniform(512) * kBytes4K;  // heavy collisions
    switch (rng.Uniform(4)) {
      case 0:
      case 1:
        flat[key] += op;
        reference[key] += static_cast<std::uint64_t>(op);
        break;
      case 2: {
        const bool flat_erased = flat.Erase(key);
        const bool ref_erased = reference.erase(key) > 0;
        EXPECT_EQ(flat_erased, ref_erased);
        break;
      }
      default: {
        const std::uint64_t* found = flat.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
  }
  ASSERT_EQ(flat.size(), reference.size());
  for (const auto& [key, value] : flat) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
  }
}

TEST(FlatMapTest, IterationOrderIsInsertionOrderWithoutErase) {
  FlatMap<Addr, int> map;
  const std::vector<Addr> keys = {0x9000, 0x1000, 0x5000, 0x3000};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map[keys[i]] = static_cast<int>(i);
  }
  std::size_t at = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key, keys[at]);
    EXPECT_EQ(value, static_cast<int>(at));
    ++at;
  }
}

TEST(FlatSetTest, InsertEraseContains) {
  FlatSet<Addr> set;
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Contains(42));
  EXPECT_TRUE(set.Erase(42));
  EXPECT_FALSE(set.Erase(42));
  EXPECT_TRUE(set.empty());
}

// Order-sensitive consumers iterate through ForEachPageSorted: equal
// contents must give one canonical visit sequence whatever the build
// history (this is the portability contract of DESIGN.md Section 7).
TEST(FlatMapTest, SortedIterationIsCanonicalAcrossHistories) {
  PageAggMap a;
  PageAggMap b;
  const std::vector<Addr> keys = {0x7000, 0x2000, 0x9000, 0x4000, 0x1000};
  for (const Addr key : keys) {
    a[key].total = key;
  }
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    b[*it].total = *it;
  }
  b[0xdead000].total = 1;  // erase churn perturbs b's dense order
  b.Erase(0xdead000);
  std::vector<Addr> visited_a;
  std::vector<Addr> visited_b;
  ForEachPageSorted(a, [&](Addr key, const PageAgg&) { visited_a.push_back(key); });
  ForEachPageSorted(b, [&](Addr key, const PageAgg&) { visited_b.push_back(key); });
  EXPECT_EQ(visited_a, visited_b);
  EXPECT_TRUE(std::is_sorted(visited_a.begin(), visited_a.end()));
}

// ---------------------------------------------------------------------------
// Incremental window vs full re-aggregation.
// ---------------------------------------------------------------------------

class SampleWindowTest : public ::testing::Test {
 protected:
  SampleWindowTest() : topo_(Topology::Tiny(256 * kMiB)), phys_(topo_), as_(phys_, topo_, thp_) {}

  IbsSample Sample(Addr va, int core, int req_node, bool dram = true) {
    IbsSample s;
    s.va = va;
    s.core = static_cast<std::uint16_t>(core);
    s.req_node = static_cast<std::uint8_t>(req_node);
    s.home_node = 0;
    s.dram = dram;
    return s;
  }

  static void ExpectEqualAggregates(const PageAggMap& got, const PageAggMap& want) {
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [base, agg] : want) {
      const PageAgg* found = got.Find(base);
      ASSERT_NE(found, nullptr) << "missing page " << std::hex << base;
      EXPECT_EQ(found->total, agg.total) << std::hex << base;
      EXPECT_EQ(found->dram, agg.dram) << std::hex << base;
      EXPECT_EQ(found->core_mask, agg.core_mask) << std::hex << base;
      EXPECT_EQ(found->home_node, agg.home_node) << std::hex << base;
      EXPECT_EQ(found->size, agg.size) << std::hex << base;
      EXPECT_EQ(found->req_node_counts, agg.req_node_counts) << std::hex << base;
    }
  }

  Topology topo_;
  PhysicalMemory phys_;
  ThpState thp_;
  AddressSpace as_;
};

TEST_F(SampleWindowTest, IncrementalMatchesReferenceAcrossMappingChurn) {
  thp_.alloc_enabled = true;
  const Addr big = as_.MmapAnon(8 * kMiB, {});
  for (Addr offset = 0; offset < 8 * kMiB; offset += kBytes2M) {
    as_.Touch(big + offset, 0);  // four 2M pages
  }
  const Addr small = as_.MmapAnon(kMiB, MakeNoThpOpts());
  for (Addr offset = 0; offset < kMiB; offset += kBytes4K) {
    as_.Touch(small + offset, static_cast<int>((offset >> kShift4K) % 2));
  }

  // The oracle is the seed's computation: AggregateSamples over the
  // concatenated last `max_epochs` epochs, kept in the test's own deque.
  constexpr std::size_t kMaxEpochs = 4;
  SampleWindow window(kMaxEpochs);
  std::deque<std::vector<IbsSample>> raw_epochs;
  Rng rng(99);
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<IbsSample> samples;
    for (int i = 0; i < 200; ++i) {
      const bool in_big = rng.Uniform(3) != 0;
      const Addr va = in_big ? big + rng.Uniform(8 * kMiB) : small + rng.Uniform(kMiB);
      samples.push_back(Sample(va, static_cast<int>(rng.Uniform(4)),
                               static_cast<int>(rng.Uniform(2)), rng.Uniform(4) != 0));
    }
    window.PushEpoch(samples);
    raw_epochs.push_back(samples);
    if (raw_epochs.size() > kMaxEpochs) {
      raw_epochs.pop_front();
    }

    // Mutate mappings the way the policies do: the incremental aggregate
    // must track re-bucketing (split), merging (promote) and home changes
    // (migrate) without touching the window itself.
    if (epoch == 2) {
      ASSERT_TRUE(as_.SplitLargePage(big).has_value());
    }
    if (epoch == 4) {
      as_.MigratePage(big + 2 * kBytes2M, 1);
      as_.MigratePage(small, 1);
    }
    if (epoch == 6) {
      ASSERT_TRUE(as_.PromoteWindow(big, 1).has_value());
    }
    if (epoch == 8) {
      as_.MigratePage(big + kBytes4K * 3, 0);  // no-op unless still 4K-mapped
    }

    std::vector<IbsSample> concatenated;
    for (const auto& epoch_samples : raw_epochs) {
      concatenated.insert(concatenated.end(), epoch_samples.begin(), epoch_samples.end());
    }
    ExpectEqualAggregates(window.FoldToMapping(as_),
                          AggregateSamples(concatenated, as_, AggGranularity::kMapping));
    EXPECT_EQ(window.epochs(), raw_epochs.size());
  }
}

// The satellite regression: retiring the oldest epoch at the window
// boundary (the seed's erase(begin())) must leave exactly the last
// `max_epochs` epochs aggregated — counts and sharer masks both.
TEST_F(SampleWindowTest, WindowBoundaryRetiresOldestEpoch) {
  const Addr base = as_.MmapAnon(kMiB, MakeNoThpOpts());
  as_.Touch(base, 0);
  as_.Touch(base + kBytes4K, 0);

  SampleWindow window(/*max_epochs=*/3);
  // Epoch 0 is the only epoch where core 7 touches page 0.
  window.PushEpoch({Sample(base, /*core=*/7, 0), Sample(base + kBytes4K, 1, 1)});
  window.PushEpoch({Sample(base, 0, 0)});
  window.PushEpoch({Sample(base, 1, 0)});
  {
    const PageAggMap folded = window.FoldToMapping(as_);
    const PageAgg* page0 = folded.Find(base);
    ASSERT_NE(page0, nullptr);
    EXPECT_EQ(page0->total, 3u);
    EXPECT_EQ(page0->core_mask, (1ull << 7) | (1ull << 0) | (1ull << 1));
    EXPECT_NE(folded.Find(base + kBytes4K), nullptr);
  }
  // Fourth push: epoch 0 retires; core 7's bit and page 1 must vanish.
  window.PushEpoch({Sample(base, 0, 0)});
  const PageAggMap folded = window.FoldToMapping(as_);
  EXPECT_EQ(window.epochs(), 3u);
  const PageAgg* page0 = folded.Find(base);
  ASSERT_NE(page0, nullptr);
  EXPECT_EQ(page0->total, 3u);
  EXPECT_EQ(page0->core_mask, (1ull << 0) | (1ull << 1));
  EXPECT_EQ(folded.Find(base + kBytes4K), nullptr);
  EXPECT_EQ(window.distinct_pages(), 1u);
}

// ---------------------------------------------------------------------------
// Vectorized TLB vs the seed's scalar TLB (tests/oracles/scalar_tlb.h):
// lookups, O(1) victim selection and live-entry bookkeeping must be
// bit-identical under churn.
// ---------------------------------------------------------------------------

// Drives both TLBs through an identical operation stream — lookups with
// refill (the engine's miss->insert pattern), precise and ranged
// invalidations, flushes — and pins every observable: hit levels, payloads,
// and the live counters that drive probe-skip decisions. Eviction choices
// are covered transitively: a divergent victim would surface as a divergent
// hit/miss within a few operations on these small arrays.
TEST(TlbEngineIdentityTest, FastMatchesScalarOracleUnderChurn) {
  const TlbConfig config;
  Tlb fast(config);
  ScalarTlb oracle(config);
  Rng rng(1234);
  // A working set far larger than the arrays, mixing page sizes, so sets
  // stay full and the LRU victim path runs constantly.
  const auto random_va = [&](PageSize& size) {
    const std::uint64_t kind = rng.Uniform(8);
    if (kind < 5) {
      size = PageSize::k4K;
      return (0x40000000ull + rng.Uniform(4096) * kBytes4K) + rng.Uniform(64) * 64;
    }
    if (kind < 7) {
      size = PageSize::k2M;
      return (0x80000000ull + rng.Uniform(128) * kBytes2M) + rng.Uniform(512) * 4096;
    }
    size = PageSize::k1G;
    return (0x100000000ull + rng.Uniform(16) * kBytes1G) + rng.Uniform(1024) * 4096;
  };
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t action = rng.Uniform(100);
    if (action < 90) {
      PageSize size = PageSize::k4K;
      const Addr va = random_va(size);
      const TlbLookup a = fast.Lookup(va);
      const TlbLookup b = oracle.Lookup(va);
      ASSERT_EQ(a.level, b.level) << "op " << op << " va " << std::hex << va;
      if (a.level != TlbHitLevel::kMiss) {
        ASSERT_EQ(a.pfn, b.pfn) << "op " << op;
        ASSERT_EQ(a.node, b.node) << "op " << op;
        ASSERT_EQ(a.size, b.size) << "op " << op;
      } else {
        // Miss -> walk -> insert, as the engine does.
        const Addr page = AlignDown(va, BytesOf(size));
        const Pfn pfn = page >> kShift4K;
        const int node = static_cast<int>(rng.Uniform(4));
        fast.Insert(page, size, pfn, node);
        oracle.Insert(page, size, pfn, node);
      }
    } else if (action < 95) {
      PageSize size = PageSize::k4K;
      const Addr va = random_va(size);
      const Addr page = AlignDown(va, BytesOf(size));
      fast.InvalidatePage(page, size);
      oracle.InvalidatePage(page, size);
    } else if (action < 99) {
      const Addr base = 0x40000000ull + rng.Uniform(8) * kBytes2M;
      fast.InvalidateRange(base, kBytes2M);
      oracle.InvalidateRange(base, kBytes2M);
    } else {
      fast.FlushAll();
      oracle.FlushAll();
    }
    ASSERT_EQ(fast.DebugOccupancy(), oracle.DebugOccupancy()) << "op " << op;
  }
  EXPECT_EQ(fast.lookups(), oracle.lookups());
}

// The live-entry audit regression: invalidations (precise and ranged) must
// retire exactly the entries they hit from the probe-skip counters, in the
// TLB and its oracle — a stale count would make Lookup skip (or probe) an
// array the other does not, which the churn test above would surface as a
// divergent hit. This pins the counters directly on a hand-built sequence.
template <typename TlbType>
void ExpectLiveCountersRetire(const char* which) {
  SCOPED_TRACE(which);
  const TlbConfig config;
  TlbType tlb(config);
  tlb.Insert(0x40000000, PageSize::k4K, 1, 0);
  tlb.Insert(0x40001000, PageSize::k4K, 2, 1);
  tlb.Insert(0x80000000, PageSize::k2M, 3, 0);
  TlbOccupancy occ = tlb.DebugOccupancy();
  EXPECT_EQ(occ.live_4k, 2u);
  EXPECT_EQ(occ.live_2m, 1u);
  EXPECT_EQ(occ.l2_parity_4k, 2u);
  EXPECT_EQ(occ.l2_parity_2m, 1u);
  tlb.InvalidatePage(0x40000000, PageSize::k4K);
  occ = tlb.DebugOccupancy();
  EXPECT_EQ(occ.live_4k, 1u);
  EXPECT_EQ(occ.l2_parity_4k, 1u);
  // Ranged shootdown across the remaining 4K entry and the 2M page.
  tlb.InvalidateRange(0x40000000, kBytes2M);
  tlb.InvalidateRange(0x80000000, kBytes2M);
  occ = tlb.DebugOccupancy();
  EXPECT_EQ(occ.live_4k, 0u);
  EXPECT_EQ(occ.live_2m, 0u);
  EXPECT_EQ(occ.l2_parity_4k, 0u);
  EXPECT_EQ(occ.l2_parity_2m, 0u);
  // Re-insert after total invalidation: counters must come back exact.
  tlb.Insert(0x40000000, PageSize::k4K, 1, 0);
  EXPECT_EQ(tlb.DebugOccupancy().live_4k, 1u);
  tlb.FlushAll();
  EXPECT_EQ(tlb.DebugOccupancy(), TlbOccupancy{});
}

TEST(TlbEngineIdentityTest, LiveCountersRetireAcrossInvalidatePaths) {
  ExpectLiveCountersRetire<Tlb>("Tlb");
  ExpectLiveCountersRetire<ScalarTlb>("ScalarTlb");
}

// ---------------------------------------------------------------------------
// Batched access generation vs the per-call generator oracle.
// ---------------------------------------------------------------------------

// Every workload pattern (uniform, zipf with and without block shuffle, hot
// chunks, partitioned, sequential, incremental) plus the setup and barrier
// phases must emit byte-identical access streams from the run-batched
// generator and the seed's one-call-per-access generator
// (tests/oracles/per_call_generator.h).
TEST(BatchedGenerationTest, MatchesPerCallOracleAcrossSuite) {
  const Topology topo = Topology::MachineA();
  for (const BenchmarkId id : {BenchmarkId::kCG_D, BenchmarkId::kUA_B, BenchmarkId::kSSCA,
                               BenchmarkId::kWrmem, BenchmarkId::kSPECjbb,
                               BenchmarkId::kLU_B}) {
    const WorkloadSpec spec = MakeWorkloadSpec(id, topo);
    PhysicalMemory phys_fast(topo);
    ThpState thp_fast;
    AddressSpace as_fast(phys_fast, topo, thp_fast);
    Workload fast(spec, as_fast, topo.num_cores(), 99);
    PhysicalMemory phys_ref(topo);
    ThpState thp_ref;
    AddressSpace as_ref(phys_ref, topo, thp_ref);
    Workload oracle_tables(spec, as_ref, topo.num_cores(), 99);
    PerCallGenerator oracle(oracle_tables);

    std::vector<WorkloadAccess> batch_fast;
    std::vector<WorkloadAccess> batch_ref;
    for (int epoch = 0; epoch < 12; ++epoch) {
      fast.BeginEpoch();
      oracle_tables.BeginEpoch();
      for (int t = 0; t < topo.num_cores(); ++t) {
        fast.FillBatch(t, 512, batch_fast);
        oracle.FillBatch(t, 512, batch_ref);
        ASSERT_EQ(batch_fast.size(), batch_ref.size());
        for (std::size_t i = 0; i < batch_fast.size(); ++i) {
          ASSERT_EQ(batch_fast[i].va, batch_ref[i].va)
              << NameOf(id) << " epoch " << epoch << " thread " << t << " access " << i;
          ASSERT_EQ(batch_fast[i].region, batch_ref[i].region);
          ASSERT_EQ(batch_fast[i].write, batch_ref[i].write);
        }
      }
      ASSERT_EQ(fast.SetupDone(), oracle_tables.SetupDone());
    }
  }
}

// ---------------------------------------------------------------------------
// Ranged TLB shootdown vs the per-page loop it replaces.
// ---------------------------------------------------------------------------

TEST(TlbRangeTest, InvalidateRangeMatchesPerPageLoop) {
  const TlbConfig config;
  Tlb ranged(config);
  Tlb per_page(config);
  const Addr window = 0x40000000;  // 2M-aligned
  // Populate both TLBs identically: the window's 512 4K translations plus
  // neighbors on both sides and an unrelated 2M entry.
  const auto fill = [&](Tlb& tlb) {
    for (Addr p = window - 4 * kBytes4K; p < window + kBytes2M + 4 * kBytes4K;
         p += kBytes4K) {
      tlb.Insert(p, PageSize::k4K, p >> kShift4K, 0);
    }
    tlb.Insert(window + 8 * kBytes2M, PageSize::k2M, 12345, 1);
  };
  fill(ranged);
  fill(per_page);
  ranged.InvalidateRange(window, kBytes2M);
  for (Addr p = window; p < window + kBytes2M; p += kBytes4K) {
    per_page.InvalidatePage(p, PageSize::k4K);
  }
  // Probe both with the same sequence; every lookup must agree.
  for (Addr p = window - 4 * kBytes4K; p < window + kBytes2M + 4 * kBytes4K;
       p += kBytes4K) {
    const TlbLookup a = ranged.Lookup(p);
    const TlbLookup b = per_page.Lookup(p);
    EXPECT_EQ(a.level, b.level) << std::hex << p;
    if (a.level != TlbHitLevel::kMiss) {
      EXPECT_EQ(a.pfn, b.pfn);
    }
  }
  EXPECT_EQ(ranged.Lookup(window + 8 * kBytes2M).level,
            per_page.Lookup(window + 8 * kBytes2M).level);
}

// ---------------------------------------------------------------------------
// Pooled page table and translate cache.
// ---------------------------------------------------------------------------

TEST(PageTablePoolTest, SplitPromoteChurnReusesPoolSlots) {
  const Topology topo = Topology::Tiny(256 * kMiB);
  PhysicalMemory phys(topo);
  ThpState thp;
  thp.alloc_enabled = true;
  AddressSpace as(phys, topo, thp);
  const Addr base = as.MmapAnon(4 * kMiB, {});
  as.Touch(base, 0);
  const std::uint64_t tables_before = as.page_table().num_tables();
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(as.SplitLargePage(base).has_value());
    ASSERT_TRUE(as.PromoteWindow(base, 0).has_value());
  }
  // Every split's PT came from (and went back to) the pool free list: no
  // net growth in live tables, and capacity stopped growing after round 1.
  EXPECT_EQ(as.page_table().num_tables(), tables_before);
  EXPECT_GE(as.page_table().pool_free(), 1u);
  EXPECT_LE(as.page_table().pool_capacity(), tables_before + 2);
}

TEST(TranslateCacheTest, CacheHitsAreInvalidatedByMutations) {
  const Topology topo = Topology::Tiny(256 * kMiB);
  PhysicalMemory phys(topo);
  ThpState thp;
  AddressSpace as(phys, topo, thp);
  const Addr base = as.MmapAnon(kMiB, MakeNoThpOpts());
  as.Touch(base, 0);
  AddressSpace::TranslationCache cache;
  const auto first = as.Translate(base + 100, cache);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->node, 0);
  // Cached repeat: same mapping.
  const auto repeat = as.Translate(base + 200, cache);
  ASSERT_TRUE(repeat.has_value());
  EXPECT_EQ(repeat->pfn, first->pfn);
  // A migration must invalidate the cached line, not serve the stale node.
  ASSERT_TRUE(as.MigratePage(base, 1).has_value());
  const auto after = as.Translate(base + 100, cache);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->node, 1);
  EXPECT_EQ(after->node, as.Translate(base + 100)->node);
}

// ---------------------------------------------------------------------------
// Whole-engine bit-identity: speculative windows vs the pure serial loop.
// ---------------------------------------------------------------------------

TEST(EngineIdentityTest, WindowedEngineMatchesSerialOracle) {
  const Topology topo = Topology::MachineA();
  // CG.D drives the hot-page path (splits + interleave + promotions); UA.B
  // drives the false-sharing path (shared demotions, split-time placement
  // from the window's 4KB aggregates, hinting-fault migration, and the
  // batched migration accounting). The oracle runs every steady epoch on the
  // seed's round-robin loop (tests/oracles/serial_engine.h).
  for (const BenchmarkId bench : {BenchmarkId::kCG_D, BenchmarkId::kUA_B}) {
    for (const PolicyKind kind :
         {PolicyKind::kThp, PolicyKind::kCarrefour2M, PolicyKind::kCarrefourLp,
          PolicyKind::kConservativeOnly}) {
      SimConfig sim;
      sim.accesses_per_thread_per_epoch = 1024;
      sim.max_epochs = 25;
      WorkloadSpec spec = MakeWorkloadSpec(bench, topo);
      spec.steady_accesses_per_thread = 16'000;

      Simulation windowed(topo, spec, MakePolicyConfig(kind), sim);
      const RunResult windowed_result = windowed.Run();
      Simulation serial(topo, spec, MakePolicyConfig(kind), sim);
      ExpectIdenticalRuns(windowed_result, SerialEngine::Run(serial),
                          std::string(NameOf(bench)) + "/" + std::string(NameOf(kind)));
    }
  }
}

// Sketch profile mode at the default admission threshold must reproduce
// exact mode bit for bit on every decision-bearing surface (DESIGN.md
// Section 11's identity argument: the epoch presketch admits every page on
// its first sample, so the exact aggregate sees the identical sample stream
// and the filter/sketch are never consulted). Same cells as the engine
// identity matrix — CG.D's hot-page churn and UA.B's demotion/hinting path —
// plus absurdly small sketch knobs on a second pass, which must not matter
// at threshold 1.
TEST(EngineIdentityTest, SketchProfileModeIsBitIdentical) {
  const Topology topo = Topology::MachineA();
  for (const BenchmarkId bench : {BenchmarkId::kCG_D, BenchmarkId::kUA_B}) {
    for (const PolicyKind kind :
         {PolicyKind::kThp, PolicyKind::kCarrefour2M, PolicyKind::kCarrefourLp,
          PolicyKind::kConservativeOnly}) {
      SimConfig sim;
      sim.accesses_per_thread_per_epoch = 1024;
      sim.max_epochs = 25;
      WorkloadSpec spec = MakeWorkloadSpec(bench, topo);
      spec.steady_accesses_per_thread = 16'000;

      Simulation exact(topo, spec, MakePolicyConfig(kind), sim);
      const RunResult exact_result = exact.Run();

      SimConfig sketch_sim = sim;
      sketch_sim.profile_mode = ProfileMode::kSketch;
      Simulation sketch(topo, spec, MakePolicyConfig(kind), sketch_sim);
      ExpectIdenticalRuns(exact_result, sketch.Run());

      SimConfig tiny_sim = sketch_sim;
      tiny_sim.profile_sketch.filter_capacity = 16;
      tiny_sim.profile_sketch.sketch_width = 16;
      Simulation tiny(topo, spec, MakePolicyConfig(kind), tiny_sim);
      ExpectIdenticalRuns(exact_result, tiny.Run());
    }
  }
}

// The acceptance-criteria regression for the sharded engine (DESIGN.md
// Section 10): every shard count must reproduce the shards=1 engine bit for
// bit, on both the hot-page driver (CG.D) and the UA.B path whose
// migrate-on-touch marks exercise the speculation abort. shards=1 runs the
// same speculative windows on one host thread, so this pins window
// execution against window execution; WindowedEngineMatchesSerialOracle,
// the datacenter cells below and WindowedShardsOneMatchesPureSerial pin it
// against the pure serial loop. shards_force bypasses the oversubscription clamp so real worker
// threads run even on a saturated (or single-core) test host.
TEST(EngineIdentityTest, ShardCountsAreBitIdentical) {
  const Topology topo = Topology::MachineA();
  for (const BenchmarkId bench : {BenchmarkId::kCG_D, BenchmarkId::kUA_B}) {
    for (const PolicyKind kind : {PolicyKind::kThp, PolicyKind::kCarrefourLp}) {
      SimConfig sim;
      sim.accesses_per_thread_per_epoch = 1024;
      sim.max_epochs = 25;
      WorkloadSpec spec = MakeWorkloadSpec(bench, topo);
      spec.steady_accesses_per_thread = 16'000;

      Simulation serial(topo, spec, MakePolicyConfig(kind), sim);
      const RunResult serial_result = serial.Run();
      for (const int shards : {2, 4, 8}) {
        SimConfig sharded_sim = sim;
        sharded_sim.shards = shards;
        sharded_sim.shards_force = true;
        Simulation sharded(topo, spec, MakePolicyConfig(kind), sharded_sim);
        EXPECT_EQ(sharded.shard_count(), shards);
        ExpectIdenticalRuns(serial_result, sharded.Run());
      }
    }
  }
}

// Datacenter machines and explicitly-1GB-backed workloads ride the same
// identity invariants as the paper machines (DESIGN.md Section 13.2's
// argument: on all-CPU machines the cpu-node refactor is the identity, and
// on far-memory machines every policy draw still happens at the same serial
// sites). Each cell is pinned across all three axes at once: engine
// (windowed vs the pure serial oracle), shards (1 vs forced 4), and profile
// mode (exact vs sketch).
TEST(EngineIdentityTest, DatacenterAndOneGigCellsAreBitIdentical) {
  struct Cell {
    Topology topo;
    BenchmarkId bench;
    bool one_gig;
  };
  const std::vector<Cell> cells = {
      {Topology::Epyc8(), BenchmarkId::kCG_D, false},
      {Topology::Snc16(), BenchmarkId::kUA_B, false},
      {Topology::Cxl(), BenchmarkId::kCG_D, false},
      // The vlp_1gb configuration: machine B at memory scale 8 so a node
      // holds several 1GB frames, every region explicitly 1GB-backed.
      {Topology::MachineB(/*memory_scale=*/8), BenchmarkId::kSSCA, true},
  };
  for (const Cell& cell : cells) {
    SimConfig sim;
    sim.accesses_per_thread_per_epoch = 1024;
    sim.max_epochs = 25;
    WorkloadSpec spec = MakeWorkloadSpec(cell.bench, cell.topo);
    spec.steady_accesses_per_thread = 16'000;
    if (cell.one_gig) {
      for (auto& region : spec.regions) {
        region.explicit_page = PageSize::k1G;
      }
    }
    const PolicyConfig policy = MakePolicyConfig(PolicyKind::kCarrefourLp);

    Simulation golden(cell.topo, spec, policy, sim);
    const RunResult golden_result = golden.Run();

    Simulation serial(cell.topo, spec, policy, sim);
    ExpectIdenticalRuns(golden_result, SerialEngine::Run(serial));

    SimConfig shard_sim = sim;
    shard_sim.shards = 4;
    shard_sim.shards_force = true;
    Simulation sharded(cell.topo, spec, policy, shard_sim);
    EXPECT_EQ(sharded.shard_count(), 4);
    ExpectIdenticalRuns(golden_result, sharded.Run());

    SimConfig sketch_sim = sim;
    sketch_sim.profile_mode = ProfileMode::kSketch;
    Simulation sketch(cell.topo, spec, policy, sketch_sim);
    ExpectIdenticalRuns(golden_result, sketch.Run());
  }
}

// The grid-level matrix, in miniature: a small grid at jobs={1,8} x
// shards={1,4} x profile={exact,sketch} must produce one identical result
// set — parallelism (between cells or inside one) never changes results,
// and neither does the profiling metadata representation. (The serial
// oracle is a cell-level friend and cannot reach inside RunGrid; the
// cell-level tests above diff it.)
TEST(EngineIdentityTest, JobsShardsAndProfileAxesAreBitIdentical) {
  ExperimentGrid grid;
  grid.machines = {Topology::MachineA()};
  grid.workloads = {BenchmarkId::kCG_D, BenchmarkId::kUA_B};
  grid.policies = {PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim.accesses_per_thread_per_epoch = 512;
  grid.sim.max_epochs = 8;

  std::vector<GridResults> all;
  for (const ProfileMode mode : {ProfileMode::kExact, ProfileMode::kSketch}) {
    for (const int jobs : {1, 8}) {
      for (const int shards : {1, 4}) {
        ExperimentGrid g = grid;
        g.sim.profile_mode = mode;
        g.sim.shards = shards;
        g.sim.shards_force = true;
        const ExperimentRunner runner(jobs);
        all.push_back(RunGrid(g, runner));
      }
    }
  }
  const GridResults& golden = all.front();
  for (std::size_t v = 1; v < all.size(); ++v) {
    for (int w = 0; w < golden.num_workloads(); ++w) {
      for (int s = 0; s < golden.num_seeds(); ++s) {
        const RunResult& want = golden.At(0, w, 0, s);
        const RunResult& got = all[v].At(0, w, 0, s);
        EXPECT_EQ(got.total_cycles, want.total_cycles)
            << "variant " << v << " workload " << w << " seed " << s;
        EXPECT_EQ(got.measured_cycles, want.measured_cycles);
        EXPECT_EQ(got.total_migrations, want.total_migrations);
        EXPECT_EQ(got.total_splits, want.total_splits);
        EXPECT_EQ(got.totals.dram_local, want.totals.dram_local);
        const RunResult& base_want = golden.Baseline(0, w, s);
        const RunResult& base_got = all[v].Baseline(0, w, s);
        EXPECT_EQ(base_got.total_cycles, base_want.total_cycles);
      }
    }
  }
}

void ExpectSameSpeculation(const SpeculationStats& a, const SpeculationStats& b,
                           const std::string& where) {
  EXPECT_EQ(a.windows_committed, b.windows_committed) << where;
  EXPECT_EQ(a.windows_fault_aborted, b.windows_fault_aborted) << where;
  EXPECT_EQ(a.windows_hint_aborted, b.windows_hint_aborted) << where;
  EXPECT_EQ(a.setup_rounds, b.setup_rounds) << where;
  EXPECT_EQ(a.replay_rounds, b.replay_rounds) << where;
  EXPECT_EQ(a.penalty_rounds, b.penalty_rounds) << where;
}

// Steady epochs run as speculative windows at every shard count, shards=1
// included (DESIGN.md Section 10.3). On cells whose windows both commit and
// abort at shards=1 — Carrefour-LP's splits and hint marks on CG.D, the same
// cell under frag faults, and a ckpt-churn trace replay whose mmaps fault
// mid-run — the windowed row must equal the serial oracle's row byte for
// byte, and the window outcome counts must be identical at
// fast-engine shards {1, 2, 4}.
TEST(EngineIdentityTest, WindowedShardsOneMatchesPureSerial) {
  const Topology topo = Topology::MachineA();
  SimConfig sim;
  sim.accesses_per_thread_per_epoch = 1024;
  sim.max_epochs = 25;

  const std::string trace_path =
      (std::filesystem::path(::testing::TempDir()) / "perf_structures_churn.bin").string();
  trace::TracegenOptions gen;
  gen.profile = "ckpt-churn";
  gen.topo = topo;
  gen.accesses_per_thread = 1024;
  gen.epochs = 25;
  trace::GenerateTrace(gen, trace_path);

  struct Cell {
    std::string name;
    RunSpec spec;
    bool hint_aborts = true;  // the abort cause the cell is known to hit
  };
  std::vector<Cell> cells(3);
  for (Cell& cell : cells) {
    cell.spec.topo = topo;
    cell.spec.sim = sim;
  }
  cells[0].name = "CG.D/carrefour-lp";
  cells[0].spec.workload = MakeWorkloadSpec(BenchmarkId::kCG_D, topo);
  cells[0].spec.workload.steady_accesses_per_thread = 16'000;
  cells[0].spec.policy = MakePolicyConfig(PolicyKind::kCarrefourLp);
  cells[1] = cells[0];
  cells[1].name = "CG.D/carrefour-lp/frag";
  cells[1].spec.sim.faults.profile = FaultProfile::kFrag;
  cells[2].name = "ckpt-churn/thp";
  cells[2].spec.workload = MakeTraceWorkloadSpec(trace_path);
  cells[2].spec.policy = MakePolicyConfig(PolicyKind::kThp);
  cells[2].hint_aborts = false;

  for (const Cell& cell : cells) {
    const auto run = [&](bool serial, int shards) {
      RunSpec spec = cell.spec;
      spec.sim.shards = shards;
      spec.sim.shards_force = true;
      Simulation simulation(spec.topo, spec.workload, spec.policy, spec.sim);
      const RunResult result = serial ? SerialEngine::Run(simulation) : simulation.Run();
      return std::make_pair(SerializeRow(spec, result), result.speculation);
    };
    const auto [serial_row, serial_spec] = run(/*serial=*/true, 1);
    EXPECT_EQ(serial_spec.windows_committed, 0u) << cell.name;
    const auto [windowed_row, windowed_spec] = run(/*serial=*/false, 1);
    EXPECT_EQ(windowed_row, serial_row) << cell.name;
    EXPECT_GE(windowed_spec.windows_committed, 1u) << cell.name;
    EXPECT_GE(cell.hint_aborts ? windowed_spec.windows_hint_aborted
                               : windowed_spec.windows_fault_aborted,
              1u)
        << cell.name;
    EXPECT_GT(windowed_spec.replay_rounds, 0u) << cell.name;
    for (const int shards : {2, 4}) {
      const auto [sharded_row, sharded_spec] = run(/*serial=*/false, shards);
      EXPECT_EQ(sharded_row, serial_row) << cell.name << " shards=" << shards;
      ExpectSameSpeculation(windowed_spec, sharded_spec,
                            cell.name + " shards=" + std::to_string(shards));
    }
  }
  std::filesystem::remove(trace_path);
}

}  // namespace
}  // namespace numalp
