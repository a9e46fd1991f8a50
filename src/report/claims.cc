#include "src/report/claims.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <utility>

#include "src/trace/tracegen.h"
#include "src/workloads/trace_workload.h"

namespace numalp::report {

int Sweep::AddBaseline(RunSpec base, const std::string& variant, int seed_index,
                       const std::vector<PolicyKind>& compared) {
  base.policy = MakePolicyConfig(PolicyKind::kLinux4K);
  const int index = static_cast<int>(cells.size());
  cells.push_back(base);
  meta.push_back({variant, -1, seed_index});
  for (const PolicyKind kind : compared) {
    base.policy = MakePolicyConfig(kind);
    AddCompared(base, variant, index);
  }
  return index;
}

void Sweep::AddCompared(const RunSpec& cell, const std::string& variant, int baseline) {
  cells.push_back(cell);
  meta.push_back({variant, baseline, meta[static_cast<std::size_t>(baseline)].seed_index});
}

namespace {

using enum BenchmarkId;
using enum PolicyKind;

std::vector<Topology> MachinesAB() { return {Topology::MachineA(), Topology::MachineB()}; }

ExperimentGrid Grid(const BenchInputs& in, std::vector<Topology> machines,
                    std::vector<BenchmarkId> workloads, std::vector<PolicyKind> policies,
                    int seeds) {
  ExperimentGrid grid;
  grid.machines = std::move(machines);
  grid.workloads = std::move(workloads);
  grid.policies = std::move(policies);
  grid.num_seeds = seeds;
  grid.sim = in.options.sim;
  return grid;
}

Sweep Grids(std::vector<ExperimentGrid> grids) {
  Sweep sweep;
  sweep.grids = std::move(grids);
  return sweep;
}

RunSpec Cell(const Topology& topo, BenchmarkId bench, const SimConfig& sim,
             PolicyKind kind = kLinux4K) {
  return {topo, MakeWorkloadSpec(bench, topo), MakePolicyConfig(kind), sim};
}

// Machine A, SSCA.20 — Figure 2's "interleaving suffices" column — run
// once fault-free and once with pinned-fragmented buddy lists, where a 2MB
// migration's target-node contiguity mostly isn't there. Every row is
// variant-tagged ("faults=off" / "faults=frag") so the default-configuration
// checks ignore the sweep, and each variant carries its own same-seed
// Linux-4K baseline so improvements compare like with like. Variant-major,
// then seed.
Sweep FaultGrace(const BenchInputs& in) {
  const Topology topo = Topology::MachineA();
  Sweep sweep;
  for (const FaultProfile profile : {FaultProfile::kOff, FaultProfile::kFrag}) {
    for (int s = 0; s < 3; ++s) {
      RunSpec base = Cell(topo, kSSCA, in.options.sim);
      base.sim.seed += static_cast<std::uint64_t>(s);
      base.sim.faults.profile = profile;
      sweep.AddBaseline(base, "faults=" + std::string(NameOf(profile)), s,
                        {kThp, kCarrefour2M, kCarrefourLp});
    }
  }
  return sweep;
}

// Every (profile, seed) trace is synthesized into --trace-dir before the
// sweep runs; only the summary (BENCH_trace.json) is committed — the traces
// are reproducible from (profile, machine, seed). The generator shares the
// sweep's access geometry so replayed epochs are exactly full.
// Profile-major, then seed.
Sweep TraceReplay(const BenchInputs& in) {
  const Topology topo = Topology::MachineA();
  std::error_code ec;
  std::filesystem::create_directories(in.trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "trace_replay: cannot create %s: %s\n", in.trace_dir.c_str(),
                 ec.message().c_str());
    std::exit(1);
  }
  Sweep sweep;
  for (const std::string& profile : trace::TracegenProfiles()) {
    for (int s = 0; s < 3; ++s) {
      trace::TracegenOptions gen;
      gen.profile = profile;
      gen.topo = topo;
      gen.seed = in.options.sim.seed + static_cast<std::uint64_t>(s);
      gen.accesses_per_thread =
          static_cast<std::uint32_t>(in.options.sim.accesses_per_thread_per_epoch);
      gen.epochs = in.trace_epochs;
      const std::string path = (std::filesystem::path(in.trace_dir) /
                                ("trace_" + profile + "_s" + std::to_string(s) + ".bin"))
                                   .string();
      trace::GenerateTrace(gen, path);
      RunSpec base{topo, MakeTraceWorkloadSpec(path), {}, in.options.sim};
      base.sim.seed = gen.seed;
      sweep.AddBaseline(base, "", s, {kThp, kCarrefour2M, kCarrefourLp});
    }
  }
  return sweep;
}

std::vector<Setting> TraceSettings(BenchInputs* in) {
  in->trace_dir = (std::filesystem::temp_directory_path() / "numalp_traces").string();
  return {{"--trace-dir", nullptr, Text(&in->trace_dir, "DIR"),
           "where generated traces are written (default: system temp dir)"},
          {"--trace-epochs", nullptr, Int(&in->trace_epochs, 0, INT_MAX),
           "steady epochs per generated trace (0 = each profile's default)"}};
}

// libhugetlbfs is modeled with explicitly 1GB-backed VMAs on a machine B
// instance with memory scale 8 (so each node holds several 1GB frames). Per
// benchmark: Linux-4K, THP-2M, explicit-1G, explicit-1G + Carrefour-LP, all
// against the 4K baseline, tagged "mem8" or "mem8-1G" for the 1GB pair.
Sweep Vlp1Gb(const BenchInputs& in) {
  const Topology topo = Topology::MachineB(/*memory_scale=*/8);
  Sweep sweep;
  for (const BenchmarkId bench : {kSSCA, kStreamcluster}) {
    RunSpec base = Cell(topo, bench, in.options.sim);
    // Longer steady phase: recovery from a split 1GB page takes a few
    // epochs, and the paper's runs amortize that transient over minutes.
    base.workload.steady_accesses_per_thread *= 3;
    RunSpec huge = base;
    for (auto& region : huge.workload.regions) {
      region.explicit_page = PageSize::k1G;
    }
    const int baseline = sweep.AddBaseline(base, "mem8", 0, {kThp});
    sweep.AddCompared(huge, "mem8-1G", baseline);
    huge.policy = MakePolicyConfig(kCarrefourLp);
    sweep.AddCompared(huge, "mem8-1G", baseline);
  }
  return sweep;
}

// The IBS interval is a SimConfig field, which the grid cannot vary: per
// (benchmark, interval) one Linux-4K baseline then one Carrefour-LP cell,
// both tagged "ibs=1/N".
Sweep AblationSampling(const BenchInputs& in) {
  const Topology topo = Topology::MachineA();
  Sweep sweep;
  for (const BenchmarkId bench : {kSSCA, kUA_B}) {
    for (const std::uint64_t interval : {512, 128, 64, 16, 4}) {
      RunSpec base = Cell(topo, bench, in.options.sim);
      base.sim.ibs_interval = interval;
      sweep.AddBaseline(base, "ibs=1/" + std::to_string(interval), 0, {kCarrefourLp});
    }
  }
  return sweep;
}

// The thresholds are PolicyConfig fields, which the grid's policy axis
// cannot vary: one shared Linux-4K baseline per benchmark, then per sweep
// one Carrefour-LP cell per (point, benchmark), point-major, tagged
// "miggain=N" / "splitgain=N" / "hotshare=N". Each sweep moves one
// threshold; the others keep the paper's values (the PolicyConfig defaults).
Sweep AblationThresholds(const BenchInputs& in) {
  const Topology topo = Topology::MachineB();
  const BenchmarkId pair[] = {kCG_D, kUA_B};
  struct Axis {
    const char* tag;
    double PolicyConfig::*field;
    std::vector<double> points;
    std::size_t benches;  // a prefix of `pair`
  };
  const Axis axes[] = {
      {"miggain", &PolicyConfig::lar_gain_carrefour_pct, {5, 10, 15, 25, 40}, 2},  // paper: 15%
      {"splitgain", &PolicyConfig::lar_gain_split_pct, {1, 5, 10, 20, 50}, 2},     // paper: 5%
      {"hotshare", &PolicyConfig::hot_page_share_pct, {2, 6, 12, 25, 100}, 1},     // paper: 6%
  };
  Sweep sweep;
  const int baseline_of[] = {sweep.AddBaseline(Cell(topo, pair[0], in.options.sim), ""),
                             sweep.AddBaseline(Cell(topo, pair[1], in.options.sim), "")};
  for (const Axis& axis : axes) {
    for (const double point : axis.points) {
      char variant[32];
      std::snprintf(variant, sizeof(variant), "%s=%.0f", axis.tag, point);
      for (std::size_t b = 0; b < axis.benches; ++b) {
        RunSpec lp = Cell(topo, pair[b], in.options.sim, kCarrefourLp);
        lp.policy.*axis.field = point;
        sweep.AddCompared(lp, variant, baseline_of[b]);
      }
    }
  }
  return sweep;
}

// Five Carrefour-LP variants on the workloads that motivated the redesign:
// the three that regressed hardest under the literal Algorithm 1
// transcription (LU.B, MatrixMultiply, SPECjbb: mass demotion on
// over-predicted split gains), UA.B (the false-sharing split that must still
// happen) and CG.D (the hot-page recovery that must not regress). Per
// machine: one baseline per benchmark, one untagged Carrefour-2M reference
// per benchmark (the `carrefour-lp-geq-carrefour` yardstick), then one
// Carrefour-LP cell per (variant, benchmark).
Sweep AblationLpModel(const BenchInputs& in) {
  const BenchmarkId benches[] = {kCG_D, kLU_B, kUA_B, kMatrixMultiply, kSPECjbb};
  LpModelConfig nohyst, noreprom, nobudget;
  nohyst.hysteresis = false;         // immediate engage/disengage
  noreprom.repromotion = false;      // demoted windows stay 4KB forever
  nobudget.cost_budget = false;      // threshold-only veto, flat demotion cap
  const std::pair<const char*, LpModelConfig> variants[] = {
      {"lpmodel=full", LpModelConfig{}},  // hysteresis + re-promotion + cost budget
      {"lpmodel=nohyst", nohyst},
      {"lpmodel=noreprom", noreprom},
      {"lpmodel=nobudget", nobudget},
      {"lpmodel=alg1", LpModelConfig::Algorithm1()},  // all three off
  };
  Sweep sweep;
  for (const Topology& topo : MachinesAB()) {
    std::vector<int> baseline_of;
    for (const BenchmarkId bench : benches) {
      baseline_of.push_back(sweep.AddBaseline(Cell(topo, bench, in.options.sim), ""));
    }
    for (std::size_t b = 0; b < std::size(benches); ++b) {
      sweep.AddCompared(Cell(topo, benches[b], in.options.sim, kCarrefour2M), "",
                        baseline_of[b]);
    }
    for (const auto& [tag, model] : variants) {
      for (std::size_t b = 0; b < std::size(benches); ++b) {
        RunSpec lp = Cell(topo, benches[b], in.options.sim, kCarrefourLp);
        lp.policy.lp_model = model;
        sweep.AddCompared(lp, tag, baseline_of[b]);
      }
    }
  }
  return sweep;
}

std::vector<Claim> MakeClaims() {
  // Rows are listed in the order --check prints their checks; the
  // descriptive rows follow.
  return {
      {.info = {"fig1_thp_vs_linux", "fig1",
                "Figure 1: THP improvement over Linux-4K, full suite, machines A+B"},
       .section = "Figure 1",
       .claim = "THP helps allocation/TLB-bound workloads (WC, wrmem strongly positive on B) "
                "and hurts hot-page/false-sharing ones (CG.D strongly negative on B)",
       // Paper shape: WC +109% on B, WR, wrmem +51%, SSCA +17% on A; CG.D
       // -43% on B, UA.B/UA.C, SPECjbb -6%; most others move a few percent.
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, MachinesAB(), FullSuite(), {kThp}, 3)});
       },
       .checks = {
           // Schema sanity over every loaded Linux-4K row, whichever bench.
           {.id = "baseline-improvement-zero", .shape = Check::kCustom,
            .custom = BaselineImprovementZero},
           // Figure 1 / Table 1's flagship loss (paper: -43%).
           {.id = "thp-hurts-hot-page-cg-on-machineB", .machines = {"machineB"},
            .workloads = {"CG.D"}, .x = "THP", .op = Op::kLess,
            .detail = "THP improvement %.1f%% (expected < 0)"},
           // Figure 1's flagship wins (paper: +109% and +51%).
           {.id = "thp-helps-allocation-wc-on-machineB", .machines = {"machineB"},
            .workloads = {"WC"}, .x = "THP", .op = Op::kGreater,
            .detail = "THP improvement %.1f%% (expected > 0)"},
           {.id = "thp-helps-allocation-wrmem", .machines = {"machineA", "machineB"},
            .workloads = {"wrmem"}, .x = "THP", .op = Op::kGreater, .detail = "%.1f%%"},
       }},
      {.info = {"fig3_carrefour_lp", "fig3",
                "Figure 3: Carrefour-LP and THP vs Linux-4K on the THP-degraded applications"},
       .section = "Figure 3",
       .claim = "Carrefour-LP recovers most of THP's CG.D loss by splitting the hot pages",
       // Paper shape: Carrefour-LP restores what THP lost on CG.D and
       // UA.B/UA.C, unlocks THP's benefit on SSCA and SPECjbb, and never
       // costs more than a few percent elsewhere.
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, MachinesAB(), AffectedSubset(), {kThp, kCarrefourLp}, 3)});
       },
       .checks = {
           {.id = "carrefour-lp-recovers-cg-on-machineB", .machines = {"machineB"},
            .workloads = {"CG.D"}, .x = "Carrefour-LP", .y = "THP", .op = Op::kGreater,
            .detail = "Carrefour-LP %.1f%% vs THP %.1f%%"},
           // Figures 2 vs 3 on the hot-page flagship: migration cannot
           // balance CG.D's few hot pages, so Carrefour-2M stays near THP's
           // loss while splitting recovers — no tolerance.
           {.id = "carrefour-lp-geq-carrefour-on-hot-page-cg", .machines = {"machineB"},
            .workloads = {"CG.D"}, .x = "Carrefour-LP", .y = "Carrefour-2M",
            .detail = "Carrefour-LP %.1f%% vs Carrefour-2M %.1f%%"},
           // The broader claim: across the affected set, large-page
           // management "never loses more than a few percent" against plain
           // Carrefour — one band, UA included: split-time piece placement,
           // batched migration accounting and the piece-locality hot-page
           // discrimination removed the mass-relocation transient that once
           // needed a 45-point UA carve-out (DESIGN.md §8.4). UA must also
           // show the locality the splits bought — the paper's Table 3
           // false-sharing recovery.
           {.id = "carrefour-lp-geq-carrefour", .shape = Check::kBand,
            .machines = {"machineA", "machineB"},
            .workloads = {"CG.D", "LU.B", "UA.B", "UA.C", "MatrixMultiply", "wrmem", "SSCA.20",
                          "SPECjbb"},
            .x = "Carrefour-LP", .y = "Carrefour-2M", .floor = 6.0,
            .detail = ": LP %.1f%% vs C2M %.1f%%",
            .pass = "Carrefour-LP within tolerance of Carrefour-2M on every measured affected "
                    "column",
            .skip = "need Carrefour-LP and Carrefour-2M columns on the affected set (run fig2 + "
                    "fig3)",
            .ua_lar_rider = true},
       }},
      {.info = {"fig2_carrefour2m", "fig2",
                "Figure 2: Carrefour-2M and THP vs Linux-4K on the THP-degraded applications"},
       .section = "Figure 2",
       .claim = "Carrefour-2M rescues SSCA.20 on A (interleaving suffices) but stays near "
                "THP's loss on CG.D (hot pages cannot be balanced)",
       // Paper shape: Carrefour-2M fixes SPECjbb and SSCA but fails on CG.D
       // and on UA.B/UA.C, whose page-level false sharing forces
       // interleaving and keeps LAR low.
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, MachinesAB(), AffectedSubset(), {kThp, kCarrefour2M}, 3)});
       },
       .checks = {
           // Paper: THP -17% -> Carrefour-2M +17-ish.
           {.id = "carrefour-2m-rescues-ssca-on-machineA", .machines = {"machineA"},
            .workloads = {"SSCA.20"}, .x = "Carrefour-2M", .y = "THP", .op = Op::kGreater,
            .detail = "Carrefour-2M %.1f%% vs THP %.1f%%"},
       }},
      {.info = {"fault_grace", "faultgrace",
                "Robustness: Carrefour-LP vs always-2M Carrefour under the frag fault profile "
                "(machine A, SSCA.20)"},
       .section = "DESIGN.md §12 (extra)",
       .claim = "graceful degradation under the `frag` fault profile on the migration-rescued "
                "column (machine A, SSCA.20): always-2M Carrefour falls off a cliff (its rescue "
                "rides on 2MB migrations landing), Carrefour-LP pivots to split + 4KB migration "
                "and keeps its loss bounded",
       .sweep = FaultGrace,
       .checks = {{.id = "carrefour-lp-graceful-under-frag", .shape = Check::kCustom,
                   .custom = GracefulUnderFrag}}},
      {.info = {"trace_replay", "trace",
                "Trace replay: tracegen profiles x 4 policies x seeds on machine A, with mmap "
                "churn fragmenting the buddy allocator organically"},
       .section = "DESIGN.md §14 (extra)",
       .claim = "recorded mmap/munmap churn fragments the buddy allocator organically: on the "
                "`ckpt-churn` trace always-2M loses ≥10 points to Carrefour-LP and its column "
                "shows nonzero `buddy_alloc_failures`/`thp_fallback_faults` with fault "
                "injection off",
       .sweep = TraceReplay,
       .checks = {
           // The ckpt-churn checkpoint storm leaves retained log pages that
           // puncture nearly every order-9 window, so always-2M's large
           // faults and 2MB migrations fail organically; Carrefour-LP
           // migrates 4KB pieces, which order-0 allocations always satisfy.
           // Measured (BENCH_trace.json): THP around -50%, Carrefour-LP
           // slightly positive; the floor and the failure rider assert the
           // mechanism, not the exact gap.
           {.id = "thp-degrades-under-mmap-churn", .machines = {"machineA"},
            .workloads = {"trace:ckpt-churn"}, .x = "Carrefour-LP", .y = "THP", .floor = 10.0,
            .detail = "Carrefour-LP %.1f%% vs always-2M %.1f%% (floor: +10 points)",
            .run = "trace_replay", .rider = OrganicAllocFailures},
       },
       .settings = TraceSettings},
      {.info = {"datacenter", "datacenter",
                "Split-then-place vs always-2M at datacenter scale: 8/16-node and CXL-tiered "
                "machines"},
       .section = "DESIGN.md §13 (extra)",
       .claim = "split-then-place survives datacenter scale: on the hot-page column (CG.D) "
                "Carrefour-LP beats always-2M Carrefour by ≥10 points on `snc16` (16 nodes) and "
                "`cxl` (far-memory tier), and stays within the 6-point band on every other "
                "datacenter column",
       // Three archetypes on machines the paper never measured: CG.D (few
       // hot pages — the split-then-place flagship), UA.B (page-level false
       // sharing — split-and-localize), SSCA.20 (migration/interleave
       // suffices — the case always-2M handles well).
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, {Topology::Epyc8(), Topology::Snc16(), Topology::Cxl()},
                            {kCG_D, kUA_B, kSSCA}, {kThp, kCarrefour2M, kCarrefourLp}, 3)});
       },
       .checks = {
           // Measured (BENCH_datacenter.json): the hot-page gap *widens*
           // with node count — migration balances a handful of hot pages
           // across 16 targets even worse than across 4. The 10-point floor
           // asserts the conclusion, not the exact gap.
           {.id = "split-then-place-holds-at-16-nodes", .machines = {"snc16"},
            .workloads = {"CG.D"}, .x = "Carrefour-LP", .y = "Carrefour-2M", .floor = 10.0,
            .detail = "Carrefour-LP %.1f%% vs Carrefour-2M %.1f%% (floor: +10 points)",
            .run = "datacenter"},
           {.id = "split-then-place-holds-with-cxl-tier", .machines = {"cxl"},
            .workloads = {"CG.D"}, .x = "Carrefour-LP", .y = "Carrefour-2M", .floor = 10.0,
            .detail = "Carrefour-LP %.1f%% vs Carrefour-2M %.1f%% (floor: +10 points)",
            .run = "datacenter"},
           // The band of carrefour-lp-geq-carrefour at datacenter scale (the
           // one near-tie in the committed data is UA.B on epyc8).
           {.id = "carrefour-lp-geq-carrefour-at-datacenter", .shape = Check::kBand,
            .machines = {"epyc8", "snc16", "cxl"}, .workloads = {"CG.D", "UA.B", "SSCA.20"},
            .x = "Carrefour-LP", .y = "Carrefour-2M", .floor = 6.0,
            .detail = ": LP %.1f%% vs C2M %.1f%%",
            .pass = "Carrefour-LP within tolerance of Carrefour-2M on every measured "
                    "datacenter column",
            .skip = "need Carrefour-LP and Carrefour-2M columns on a datacenter machine (run "
                    "datacenter)"},
       }},
      {.info = {"table3_numa_metrics", "table3",
                "Table 3: LAR and imbalance across all four system configurations"},
       .section = "Table 3",
       .claim = "UA's LAR collapses under THP and recovers under Carrefour-LP",
       // Paper values (LAR / imbalance, Linux-4K/THP/Carrefour-2M/LP):
       //   CG.D (B): LAR 40/36/38/39, imbalance  1/59/69/ 3
       //   UA.B (A): LAR 90/61/58/85, imbalance  9/15/17/10
       //   UA.C (B): LAR 88/66/68/82, imbalance 14/12/ 9/14
       // Two per-machine grids on one pool: the rows mix machines, which a
       // single cross product cannot express.
       .sweep = [](const BenchInputs& in) {
         const std::vector<PolicyKind> all = {kLinux4K, kThp, kCarrefour2M, kCarrefourLp};
         return Grids({Grid(in, {Topology::MachineB()}, {kCG_D, kUA_C}, all, 3),
                       Grid(in, {Topology::MachineA()}, {kUA_B}, all, 3)});
       },
       .checks = {
           // Tables 2/3: page-level false sharing drags UA's LAR down.
           {.id = "thp-degrades-ua-lar-on-machineA", .machines = {"machineA"},
            .workloads = {"UA.B"}, .x = "THP", .y = "Linux-4K", .field = Field::kLar,
            .op = Op::kLess, .detail = "LAR %.1f%% under THP vs %.1f%% under Linux-4K"},
       }},
      {.info = {"fig4_breakdown", "fig4", "Figure 4: Carrefour-LP component breakdown vs Linux-4K"},
       .section = "Figure 4",
       .claim = "the full system tracks the better of its reactive/conservative components",
       // Paper shape: conservative alone misses startup large-page benefits;
       // reactive alone mis-splits on LAR misestimates (SSCA on A, SPECjbb on
       // B) with no way to re-create the pages it split.
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, MachinesAB(), AffectedSubset(),
                            {kCarrefour2M, kConservativeOnly, kReactiveOnly, kCarrefourLp}, 2)});
       }},
      {.info = {"fig5_unaffected", "fig5",
                "Figure 5: THP and Carrefour-LP vs Linux-4K on the unaffected applications"},
       .section = "Figure 5",
       .claim = "the unaffected applications move little under Carrefour-LP",
       // Paper shape: EP.C, SP.B and pca, with NUMA issues THP neither caused
       // nor cured, run much faster: Carrefour-2M's component repairs them.
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, MachinesAB(), UnaffectedSubset(), {kThp, kCarrefourLp}, 3)});
       }},
      {.info = {"table1_profiling", "table1",
                "Table 1: fault time, walk misses, LAR, imbalance under Linux-4K vs THP"},
       .section = "Table 1",
       .claim = "THP shrinks fault time and walk misses (`max_fault_ms`, `walk_l2_miss_pct`) "
                "but degrades LAR/imbalance on the NUMA-sensitive rows",
       // Paper values (Linux-4K -> THP):
       //   CG.D (B):    perf -43%, walks 0->0,  LAR 40->36, imbalance  1->59
       //   UA.C (B):    perf -15%, walks 0->0,  LAR 88->66, imbalance 14->12
       //   WC (B):      perf +109%, fault time 37.6%->32.3%, walks 10->1
       //   SSCA.20 (A): perf +17%, walks 15->2, imbalance 8->52
       //   SPECjbb (A): perf -6%,  walks 7->0,  imbalance 16->39
       // One grid per machine rather than a cross product over unwanted
       // (machine, benchmark) pairs; both run on one pool.
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, {Topology::MachineB()}, {kCG_D, kUA_C, kWC}, {kLinux4K, kThp}, 3),
                       Grid(in, {Topology::MachineA()}, {kSSCA, kSPECjbb}, {kLinux4K, kThp}, 3)});
       }},
      {.info = {"table2_hotpage_falseshare", "table2",
                "Table 2: hot-page and false-sharing metrics on machine A"},
       .section = "Table 2",
       .claim = "THP inflates PAMUP/NHP (hot pages) and PSP (false sharing) on machine A",
       // Paper values (Linux-4K/THP/Carrefour-2M):
       //   SPECjbb: PAMUP 2/6/6, NHP 0/0/0, PSP 10/36/36, imb 16/39/19, LAR 26/28/27
       //   CG.D:    PAMUP 0/8/8, NHP 0/3/3, PSP 18/34/34, imb  0/20/20, LAR 45/45/45
       //   UA.B:    PAMUP 6/6/6, NHP 0/0/0, PSP 16/70/70, imb  9/15/17, LAR 90/61/58
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, {Topology::MachineA()}, {kSPECjbb, kCG_D, kUA_B},
                            {kLinux4K, kThp, kCarrefour2M}, 3)});
       }},
      {.info = {"overhead_assessment", "overhead",
                "Section 4.2: Carrefour-LP overhead vs Reactive / Carrefour-2M / Linux-4K"},
       .section = "Section 4.2",
       .claim = "`overhead_pct` stays in the low single digits for Carrefour-LP",
       // Paper: vs reactive 1-2% (worst ~3.2%), vs Carrefour-2M max 3.7% on
       // A / 3.2% on B, vs Linux-4K < 3% except FT, IS, LU.
       .sweep = [](const BenchInputs& in) {
         return Grids({Grid(in, MachinesAB(), FullSuite(),
                            {kReactiveOnly, kCarrefour2M, kCarrefourLp}, 2)});
       }},
      {.info = {"vlp_1gb", "vlp1g",
                "Section 4.4: explicit 1GB pages (libhugetlbfs model) on machine B"},
       .section = "Section 4.4",
       .claim = "explicit 1GB backing is catastrophic (hot pages + false sharing at 1GB "
                "granularity); Carrefour-LP recovers by splitting (`splits` > 0 on the "
                "`mem8-1G` + Carrefour-LP rows)",
       // Paper: 1GB pages degraded SSCA 34% and streamcluster ~4x.
       .sweep = Vlp1Gb},
      {.info = {"ablation_sampling", "ablation_sampling",
                "Ablation: IBS sampling interval vs LAR-estimation quality (machine A)"},
       .section = "Sections 3.2.1/4.3 (extra)",
       .claim = "sparse IBS sampling makes `est_split_lar_pct` optimistic vs the achieved "
                "`lar_pct`; denser sampling closes the gap but raises `overhead_pct`",
       // Sparse samples leave most 4KB sub-pages with zero or one sample —
       // the paper's SSCA anecdote (predicted 59%, actual 25%); its proposed
       // fix is hardware (a complete LWP implementation).
       .sweep = AblationSampling},
      {.info = {"ablation_thresholds", "ablation_thresholds",
                "Ablation: sensitivity of Algorithm 1's three thresholds (machine B)"},
       .section = "Section 3.2.1 (extra)",
       // Section 3.2.1 calls the migration and split thresholds "relatively
       // easy to tune"; the sweep (machine B, full fidelity) shows a dead
       // threshold and a cliff rather than a plateau, so the row only
       // describes it.
       .claim = "descriptive: no plateau. Every `splitgain` point (1–50) gives identical rows "
                "on CG.D and UA.B; `miggain` moves only UA.B, at 5 (−27.8% vs −26.1%); "
                "`hotshare` is a cliff: CG.D reads −11.6% at 2, −11.2% at 6 and 12, −61.3% at "
                "25 and 100",
       .sweep = AblationThresholds},
      {.info = {"ablation_lp_model", "ablation_lp_model",
                "Ablation: the reactive cost/decision model, component by component"},
       .section = "DESIGN.md §8 (extra)",
       .claim = "component attribution of the reactive cost/decision model: `lpmodel=alg1` "
                "(the literal Algorithm 1) reproduces the old 30–48% regressions on the "
                "mass-demotion workloads, `lpmodel=full` tracks Carrefour-2M; "
                "`nohyst`/`noreprom`/`nobudget` isolate each component",
       .sweep = AblationLpModel},
  };
}

}  // namespace

const std::vector<Claim>& Claims() {
  static const std::vector<Claim> claims = MakeClaims();
  return claims;
}

const Claim* FindClaim(const std::string& name) {
  for (const Claim& claim : Claims()) {
    if (name == claim.info.name) {
      return &claim;
    }
  }
  return nullptr;
}

}  // namespace numalp::report
