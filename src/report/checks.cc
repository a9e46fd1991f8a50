#include "src/report/checks.h"

#include <cstdio>
#include <map>
#include <optional>
#include <ostream>

namespace numalp::report {

namespace {

// Seed-averaged view of one (machine, workload, policy) column, pooled
// across benches (fig2 and fig3 both measuring THP on CG.D is one column).
struct ColumnMean {
  double improvement_sum = 0.0;
  double lar_sum = 0.0;
  // Organic large-page allocation failures (THP fallback faults + buddy
  // allocation failures), summed — evidence for the mmap-churn check.
  double alloc_failure_sum = 0.0;
  int rows = 0;
  double improvement() const { return improvement_sum / rows; }
  double lar() const { return lar_sum / rows; }
  double alloc_failures() const { return alloc_failure_sum; }
};

using ColumnMap = std::map<std::string, ColumnMean>;

std::string Key(const std::string& machine, const std::string& workload,
                const std::string& policy) {
  return machine + "|" + workload + "|" + policy;
}

std::optional<ColumnMean> Find(const ColumnMap& columns, const std::string& machine,
                               const std::string& workload, const std::string& policy) {
  const auto it = columns.find(Key(machine, workload, policy));
  if (it == columns.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

CheckResult Skip(const char* name, const std::string& detail) {
  return {name, CheckStatus::kSkip, detail};
}

CheckResult Verdict(const char* name, bool passed, const std::string& detail) {
  return {name, passed ? CheckStatus::kPass : CheckStatus::kFail, detail};
}

// Paper names used by the expectations.
constexpr const char* kMachineA = "machineA";
constexpr const char* kMachineB = "machineB";
// Datacenter presets (DESIGN.md Section 13), measured by bench_datacenter.
constexpr const char* kEpyc8 = "epyc8";
constexpr const char* kSnc16 = "snc16";
constexpr const char* kCxl = "cxl";
constexpr const char* kLinux = "Linux-4K";
constexpr const char* kThpName = "THP";
constexpr const char* kCarrefour2M = "Carrefour-2M";
constexpr const char* kCarrefourLp = "Carrefour-LP";

}  // namespace

namespace {

// The two fault-sweep variants the robustness check reads. Rows carrying
// them come from bench_fault_grace, which runs the same cells once
// fault-free and once under the frag profile.
constexpr const char* kFaultsOff = "faults=off";
constexpr const char* kFaultsFrag = "faults=frag";

// The evaluation over pooled column means. `fault_columns` is
// keyed machine|workload|policy|variant and holds only the faults=off /
// faults=frag sweep columns.
std::vector<CheckResult> EvaluateColumns(const ColumnMap& columns,
                                         const ColumnMap& fault_columns,
                                         int baseline_rows, int nonzero_baselines);

}  // namespace

std::vector<CheckResult> EvaluatePaperChecks(const std::vector<ResultRow>& rows) {
  return EvaluatePaperChecks(Aggregate(rows));
}

std::vector<CheckResult> EvaluatePaperChecks(const std::vector<AggregateRow>& aggregates) {
  // A group holds the seed mean of `runs` rows; reconstituting the
  // per-column sums as mean x runs pools the groups across benches.
  ColumnMap columns;
  ColumnMap fault_columns;
  int baseline_rows = 0;
  int nonzero_baselines = 0;
  for (const AggregateRow& group : aggregates) {
    if (group.variant == kFaultsOff || group.variant == kFaultsFrag) {
      ColumnMean& column = fault_columns[Key(group.machine, group.workload,
                                             group.policy + "|" + group.variant)];
      column.improvement_sum += group.mean_improvement_pct * group.runs;
      column.lar_sum += group.lar_pct * group.runs;
      column.rows += group.runs;
    }
    if (!group.variant.empty()) {
      continue;
    }
    ColumnMean& column = columns[Key(group.machine, group.workload, group.policy)];
    column.improvement_sum += group.mean_improvement_pct * group.runs;
    column.lar_sum += group.lar_pct * group.runs;
    column.alloc_failure_sum +=
        (group.thp_fallback_faults + group.buddy_alloc_failures) * group.runs;
    column.rows += group.runs;
    if (group.policy == kLinux) {
      // min/max, not the mean: rows of +1 and -1 must fail too. A group
      // with any nonzero row counts all of its rows.
      baseline_rows += group.runs;
      if (group.min_improvement_pct != 0.0 || group.max_improvement_pct != 0.0) {
        nonzero_baselines += group.runs;
      }
    }
  }
  return EvaluateColumns(columns, fault_columns, baseline_rows, nonzero_baselines);
}

namespace {

std::vector<CheckResult> EvaluateColumns(const ColumnMap& columns,
                                         const ColumnMap& fault_columns,
                                         int baseline_rows, int nonzero_baselines) {
  std::vector<CheckResult> results;

  // Schema sanity: a Linux-4K run is its own baseline by construction, so
  // its improvement must be exactly zero in every row.
  if (baseline_rows == 0) {
    results.push_back(Skip("baseline-improvement-zero", "no Linux-4K rows"));
  } else {
    results.push_back(Verdict(
        "baseline-improvement-zero", nonzero_baselines == 0,
        Fmt("%.0f of %.0f Linux-4K rows nonzero", nonzero_baselines, baseline_rows)));
  }

  // Figure 1 / Table 1: THP hurts the hot-page workload CG.D on machine B
  // (paper: -43%).
  if (const auto thp = Find(columns, kMachineB, "CG.D", kThpName)) {
    results.push_back(Verdict("thp-hurts-hot-page-cg-on-machineB", thp->improvement() < 0.0,
                              Fmt("THP improvement %.1f%% (expected < 0)",
                                  thp->improvement(), 0.0)));
  } else {
    results.push_back(
        Skip("thp-hurts-hot-page-cg-on-machineB", "no (machineB, CG.D, THP) rows"));
  }

  // Figure 1: THP helps the allocation-intensive WC on machine B (paper:
  // +109%).
  if (const auto thp = Find(columns, kMachineB, "WC", kThpName)) {
    results.push_back(Verdict("thp-helps-allocation-wc-on-machineB",
                              thp->improvement() > 0.0,
                              Fmt("THP improvement %.1f%% (expected > 0)",
                                  thp->improvement(), 0.0)));
  } else {
    results.push_back(
        Skip("thp-helps-allocation-wc-on-machineB", "no (machineB, WC, THP) rows"));
  }

  // Figures 1-3: wrmem (Metis allocation storm) gains under THP on every
  // machine measured (paper: +51%).
  {
    bool any = false;
    bool all_pass = true;
    std::string detail;
    for (const char* machine : {kMachineA, kMachineB}) {
      const auto thp = Find(columns, machine, "wrmem", kThpName);
      if (!thp) {
        continue;
      }
      any = true;
      all_pass = all_pass && thp->improvement() > 0.0;
      if (!detail.empty()) {
        detail += "; ";
      }
      detail += machine + Fmt(": %.1f%%", thp->improvement(), 0.0);
    }
    if (any) {
      results.push_back(Verdict("thp-helps-allocation-wrmem", all_pass, detail));
    } else {
      results.push_back(Skip("thp-helps-allocation-wrmem", "no (wrmem, THP) rows"));
    }
  }

  // Figure 3: Carrefour-LP restores what THP lost on CG.D (machine B) by
  // splitting the hot pages.
  {
    const auto lp = Find(columns, kMachineB, "CG.D", kCarrefourLp);
    const auto thp = Find(columns, kMachineB, "CG.D", kThpName);
    if (lp && thp) {
      results.push_back(Verdict(
          "carrefour-lp-recovers-cg-on-machineB", lp->improvement() > thp->improvement(),
          Fmt("Carrefour-LP %.1f%% vs THP %.1f%%", lp->improvement(), thp->improvement())));
    } else {
      results.push_back(Skip("carrefour-lp-recovers-cg-on-machineB",
                             "need (machineB, CG.D) under both Carrefour-LP and THP"));
    }
  }

  // Figures 2 vs 3, the hot-page flagship: on CG.D (machine B) migration
  // cannot balance the few hot pages, so plain Carrefour-2M stays near
  // THP's loss while Carrefour-LP recovers by splitting — LP must be at
  // least C2M there, with no tolerance.
  {
    const auto lp = Find(columns, kMachineB, "CG.D", kCarrefourLp);
    const auto c2m = Find(columns, kMachineB, "CG.D", kCarrefour2M);
    if (lp && c2m) {
      results.push_back(Verdict("carrefour-lp-geq-carrefour-on-hot-page-cg",
                                lp->improvement() >= c2m->improvement(),
                                Fmt("Carrefour-LP %.1f%% vs Carrefour-2M %.1f%%",
                                    lp->improvement(), c2m->improvement())));
    } else {
      results.push_back(
          Skip("carrefour-lp-geq-carrefour-on-hot-page-cg",
               "need (machineB, CG.D) under both Carrefour-LP and Carrefour-2M"));
    }
  }

  // The paper's broader Figure 3 claim: across the whole NUMA-affected set,
  // large-page management "never loses more than a few percent" against
  // plain Carrefour. Evaluated per (machine, workload) column wherever both
  // policies were measured, with one small tolerance band for the "few
  // percent" — UA included. (Through PR 4, UA carried a 45-point carve-out
  // for a mass-relocation transient that epoch-capped runs could not
  // amortize; split-time piece placement, batched migration accounting and
  // the piece-locality hot-page discrimination removed the transient, so
  // the carve-out is gone.) UA additionally must show the locality the
  // splits bought: its LAR may not fall below plain Carrefour's — the
  // paper's Table 3 false-sharing recovery, asserted on top of the band.
  {
    constexpr double kTolerancePct = 6.0;
    constexpr const char* kAffected[] = {"CG.D", "LU.B",  "UA.B",    "UA.C",
                                         "MatrixMultiply", "wrmem", "SSCA.20",
                                         "SPECjbb"};
    bool any = false;
    bool all_pass = true;
    std::string detail;
    for (const char* machine : {kMachineA, kMachineB}) {
      for (const char* workload : kAffected) {
        const auto lp = Find(columns, machine, workload, kCarrefourLp);
        const auto c2m = Find(columns, machine, workload, kCarrefour2M);
        if (!lp || !c2m) {
          continue;
        }
        any = true;
        const bool ua = std::string_view(workload).substr(0, 2) == "UA";
        const bool ua_lar_recovered = !ua || lp->lar() >= c2m->lar() - 1.0;
        if (lp->improvement() < c2m->improvement() - kTolerancePct || !ua_lar_recovered) {
          all_pass = false;
          if (!detail.empty()) {
            detail += "; ";
          }
          detail += std::string(machine) + "/" + workload +
                    Fmt(": LP %.1f%% vs C2M %.1f%%", lp->improvement(),
                        c2m->improvement());
          if (!ua_lar_recovered) {
            detail += Fmt(" (UA requires LAR recovery: LP %.1f%% vs C2M %.1f%%)",
                          lp->lar(), c2m->lar());
          }
        }
      }
    }
    if (!any) {
      results.push_back(Skip("carrefour-lp-geq-carrefour",
                             "need Carrefour-LP and Carrefour-2M columns on the "
                             "affected set (run fig2 + fig3)"));
    } else {
      results.push_back(Verdict(
          "carrefour-lp-geq-carrefour", all_pass,
          all_pass ? "Carrefour-LP within tolerance of Carrefour-2M on every "
                     "measured affected column"
                   : detail));
    }
  }

  // Figure 2: Carrefour-2M rescues SSCA on machine A — migration and
  // interleaving suffice there (paper: THP -17% -> Carrefour-2M +17-ish).
  {
    const auto c2m = Find(columns, kMachineA, "SSCA.20", kCarrefour2M);
    const auto thp = Find(columns, kMachineA, "SSCA.20", kThpName);
    if (c2m && thp) {
      results.push_back(Verdict("carrefour-2m-rescues-ssca-on-machineA",
                                c2m->improvement() > thp->improvement(),
                                Fmt("Carrefour-2M %.1f%% vs THP %.1f%%", c2m->improvement(),
                                    thp->improvement())));
    } else {
      results.push_back(Skip("carrefour-2m-rescues-ssca-on-machineA",
                             "need (machineA, SSCA.20) under both Carrefour-2M and THP"));
    }
  }

  // Robustness (DESIGN.md Section 12): under the frag fault profile the
  // target-node contiguity a 2MB migration needs mostly isn't there, so on
  // the migration-rescued SSCA column (machine A) always-2M Carrefour-2M —
  // whose whole rescue rides on moving 2MB pages — falls off a cliff, while
  // Carrefour-LP observes the failures, discounts its migration estimate and
  // pivots to splitting + 4KB migration: its loss vs its own fault-free run
  // stays bounded and strictly below Carrefour-2M's.
  {
    constexpr double kGracefulLossPct = 35.0;
    const std::string lp = kCarrefourLp, c2m = kCarrefour2M;
    const auto lp_off = Find(fault_columns, kMachineA, "SSCA.20", lp + "|" + kFaultsOff);
    const auto lp_frag = Find(fault_columns, kMachineA, "SSCA.20", lp + "|" + kFaultsFrag);
    const auto c2m_off = Find(fault_columns, kMachineA, "SSCA.20", c2m + "|" + kFaultsOff);
    const auto c2m_frag = Find(fault_columns, kMachineA, "SSCA.20", c2m + "|" + kFaultsFrag);
    if (lp_off && lp_frag && c2m_off && c2m_frag) {
      const double lp_loss = lp_off->improvement() - lp_frag->improvement();
      const double c2m_loss = c2m_off->improvement() - c2m_frag->improvement();
      results.push_back(
          Verdict("carrefour-lp-graceful-under-frag",
                  lp_loss <= kGracefulLossPct && c2m_loss > lp_loss,
                  Fmt("frag costs Carrefour-LP %.1f points vs Carrefour-2M %.1f "
                      "(LP bound: 35.0)",
                      lp_loss, c2m_loss)));
    } else {
      results.push_back(Skip("carrefour-lp-graceful-under-frag",
                             "need (machineA, SSCA.20) under Carrefour-LP and "
                             "Carrefour-2M at faults=off and faults=frag "
                             "(run fault_grace)"));
    }
  }

  // Mmap-lifetime churn (DESIGN.md Section 14, bench_trace_replay): the
  // ckpt-churn trace's checkpoint storm leaves retained log pages behind
  // that puncture nearly every order-9 window, so always-2M's large faults
  // and 2MB migrations start failing *organically* (no fault injection) —
  // the buddy allocator genuinely has no contiguity left. Carrefour-LP
  // splits the hot 2MB pages and migrates 4KB pieces, which order-0
  // allocations always satisfy. Measured (BENCH_trace.json): THP around
  // -50%, Carrefour-LP slightly positive; the 10-point floor and the
  // nonzero-failure requirement assert the mechanism, not the exact gap.
  {
    constexpr double kChurnGapFloorPct = 10.0;
    constexpr const char* kChurnTrace = "trace:ckpt-churn";
    const auto lp = Find(columns, kMachineA, kChurnTrace, kCarrefourLp);
    const auto thp = Find(columns, kMachineA, kChurnTrace, kThpName);
    if (lp && thp) {
      const bool organic_failures = thp->alloc_failures() > 0.0;
      std::string detail =
          Fmt("Carrefour-LP %.1f%% vs always-2M %.1f%% (floor: +10 points)",
              lp->improvement(), thp->improvement());
      detail += Fmt("; %.0f organic alloc failures under always-2M (need > 0)",
                    thp->alloc_failures(), 0.0);
      results.push_back(Verdict(
          "thp-degrades-under-mmap-churn",
          lp->improvement() >= thp->improvement() + kChurnGapFloorPct && organic_failures,
          detail));
    } else {
      results.push_back(Skip("thp-degrades-under-mmap-churn",
                             "need (machineA, trace:ckpt-churn) under both "
                             "Carrefour-LP and THP (run trace_replay)"));
    }
  }

  // Datacenter scale (DESIGN.md Section 13, bench_datacenter): the paper's
  // split-then-place conclusion was measured on 4- and 8-node boxes; these
  // checks pin the committed answer for the machines where the decision
  // matters today. Measured shape (BENCH_datacenter.json): the hot-page gap
  // *widens* with node count — always-2M Carrefour's whole rescue is
  // migration, and migration balances a handful of hot pages across 16
  // targets even worse than across 4 — so Carrefour-LP's split path wins by
  // tens of points on CG.D at every scale. The 10-point floor asserts the
  // qualitative conclusion, not the exact gap.
  {
    constexpr double kHotPageGapFloorPct = 10.0;
    const auto lp = Find(columns, kSnc16, "CG.D", kCarrefourLp);
    const auto c2m = Find(columns, kSnc16, "CG.D", kCarrefour2M);
    if (lp && c2m) {
      results.push_back(
          Verdict("split-then-place-holds-at-16-nodes",
                  lp->improvement() >= c2m->improvement() + kHotPageGapFloorPct,
                  Fmt("Carrefour-LP %.1f%% vs Carrefour-2M %.1f%% (floor: +10 points)",
                      lp->improvement(), c2m->improvement())));
    } else {
      results.push_back(Skip("split-then-place-holds-at-16-nodes",
                             "need (snc16, CG.D) under both Carrefour-LP and "
                             "Carrefour-2M (run datacenter)"));
    }
  }
  {
    constexpr double kHotPageGapFloorPct = 10.0;
    const auto lp = Find(columns, kCxl, "CG.D", kCarrefourLp);
    const auto c2m = Find(columns, kCxl, "CG.D", kCarrefour2M);
    if (lp && c2m) {
      results.push_back(
          Verdict("split-then-place-holds-with-cxl-tier",
                  lp->improvement() >= c2m->improvement() + kHotPageGapFloorPct,
                  Fmt("Carrefour-LP %.1f%% vs Carrefour-2M %.1f%% (floor: +10 points)",
                      lp->improvement(), c2m->improvement())));
    } else {
      results.push_back(Skip("split-then-place-holds-with-cxl-tier",
                             "need (cxl, CG.D) under both Carrefour-LP and "
                             "Carrefour-2M (run datacenter)"));
    }
  }
  // The broader datacenter band, mirroring carrefour-lp-geq-carrefour: on
  // every measured (datacenter machine, workload) column, large-page
  // management stays within a few points of plain Carrefour (the one
  // near-tie in the committed data is UA.B on epyc8, where the two policies
  // land within a point of each other).
  {
    constexpr double kTolerancePct = 6.0;
    bool any = false;
    bool all_pass = true;
    std::string detail;
    for (const char* machine : {kEpyc8, kSnc16, kCxl}) {
      for (const char* workload : {"CG.D", "UA.B", "SSCA.20"}) {
        const auto lp = Find(columns, machine, workload, kCarrefourLp);
        const auto c2m = Find(columns, machine, workload, kCarrefour2M);
        if (!lp || !c2m) {
          continue;
        }
        any = true;
        if (lp->improvement() < c2m->improvement() - kTolerancePct) {
          all_pass = false;
          if (!detail.empty()) {
            detail += "; ";
          }
          detail += std::string(machine) + "/" + workload +
                    Fmt(": LP %.1f%% vs C2M %.1f%%", lp->improvement(), c2m->improvement());
        }
      }
    }
    if (!any) {
      results.push_back(Skip("carrefour-lp-geq-carrefour-at-datacenter",
                             "need Carrefour-LP and Carrefour-2M columns on a "
                             "datacenter machine (run datacenter)"));
    } else {
      results.push_back(Verdict("carrefour-lp-geq-carrefour-at-datacenter", all_pass,
                                all_pass ? "Carrefour-LP within tolerance of "
                                           "Carrefour-2M on every measured "
                                           "datacenter column"
                                         : detail));
    }
  }

  // Table 2 / Table 3: THP creates page-level false sharing on UA.B
  // (machine A), dragging the local access ratio below the 4KB run's.
  {
    const auto thp = Find(columns, kMachineA, "UA.B", kThpName);
    const auto linux = Find(columns, kMachineA, "UA.B", kLinux);
    if (thp && linux) {
      results.push_back(Verdict("thp-degrades-ua-lar-on-machineA", thp->lar() < linux->lar(),
                                Fmt("LAR %.1f%% under THP vs %.1f%% under Linux-4K",
                                    thp->lar(), linux->lar())));
    } else {
      results.push_back(Skip("thp-degrades-ua-lar-on-machineA",
                             "need (machineA, UA.B) under both THP and Linux-4K"));
    }
  }

  return results;
}

}  // namespace

bool AllPassed(const std::vector<CheckResult>& results) {
  for (const CheckResult& result : results) {
    if (result.status == CheckStatus::kFail) {
      return false;
    }
  }
  return true;
}

void PrintCheckResults(std::ostream& out, const std::vector<CheckResult>& results) {
  for (const CheckResult& result : results) {
    const char* status = result.status == CheckStatus::kPass   ? "PASS"
                         : result.status == CheckStatus::kFail ? "FAIL"
                                                               : "SKIP";
    out << status << ' ' << result.name;
    if (!result.detail.empty()) {
      out << ": " << result.detail;
    }
    out << '\n';
  }
}

}  // namespace numalp::report
