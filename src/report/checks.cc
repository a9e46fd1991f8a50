#include "src/report/checks.h"

#include <cstdio>
#include <ostream>
#include <string_view>

#include "src/report/claims.h"

namespace numalp::report {

namespace {

std::string Key(const std::string& machine, const std::string& workload,
                const std::string& policy, const std::string& variant) {
  return machine + "|" + workload + "|" + policy + "|" + variant;
}

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

CheckResult Verdict(bool passed, const std::string& detail) {
  return {"", passed ? CheckStatus::kPass : CheckStatus::kFail, detail};
}

void Append(std::string* detail, const std::string& piece) {
  *detail += (detail->empty() ? "" : "; ") + piece;
}

// The two fault-sweep variants the robustness check reads. Rows carrying
// them come from fault_grace, which runs the same cells once fault-free and
// once under the frag profile.
constexpr const char* kFaultsOff = "faults=off";
constexpr const char* kFaultsFrag = "faults=frag";

CheckResult EvaluateCompare(const Check& check, const Columns& columns) {
  const char* workload = check.workloads.front();
  const auto value = [&check](const ColumnMean& column) {
    return check.field == Field::kLar ? column.lar() : column.improvement();
  };
  bool any = false;
  bool all_pass = true;
  std::string detail;
  for (const char* machine : check.machines) {
    const ColumnMean* x = columns.Find(machine, workload, check.x);
    const ColumnMean* y = check.y != nullptr ? columns.Find(machine, workload, check.y) : nullptr;
    if (x == nullptr || (check.y != nullptr && y == nullptr)) {
      continue;
    }
    any = true;
    const double xv = value(*x);
    const double yv = y != nullptr ? value(*y) : 0.0;
    const double bar = yv + check.floor;
    std::string piece = Fmt(check.detail, xv, yv);
    bool pass = check.op == Op::kLess ? xv < bar : check.op == Op::kGreater ? xv > bar : xv >= bar;
    if (check.rider != nullptr) {
      pass = check.rider(*x, *y, &piece) && pass;
    }
    all_pass = all_pass && pass;
    Append(&detail, check.machines.size() > 1 ? machine + (": " + piece) : piece);
  }
  if (any) {
    return Verdict(all_pass, detail);
  }
  const std::string m = check.machines.size() == 1 ? std::string(check.machines[0]) + ", " : "";
  return {"", CheckStatus::kSkip,
          check.y == nullptr
              ? "no (" + m + workload + ", " + check.x + ") rows"
              : "need (" + m + workload + ") under both " + check.x + " and " + check.y +
                    (check.run != nullptr ? std::string(" (run ") + check.run + ")" : "")};
}

CheckResult EvaluateBand(const Check& check, const Columns& columns) {
  bool any = false;
  bool all_pass = true;
  std::string detail;
  for (const char* machine : check.machines) {
    for (const char* workload : check.workloads) {
      const ColumnMean* x = columns.Find(machine, workload, check.x);
      const ColumnMean* y = columns.Find(machine, workload, check.y);
      if (x == nullptr || y == nullptr) {
        continue;
      }
      any = true;
      const bool ua = check.ua_lar_rider && std::string_view(workload).substr(0, 2) == "UA";
      const bool ua_lar_recovered = !ua || x->lar() >= y->lar() - 1.0;
      if (x->improvement() < y->improvement() - check.floor || !ua_lar_recovered) {
        all_pass = false;
        std::string piece = std::string(machine) + "/" + workload +
                            Fmt(check.detail, x->improvement(), y->improvement());
        if (!ua_lar_recovered) {
          piece += Fmt(" (UA requires LAR recovery: LP %.1f%% vs C2M %.1f%%)", x->lar(),
                       y->lar());
        }
        Append(&detail, piece);
      }
    }
  }
  if (!any) {
    return {"", CheckStatus::kSkip, check.skip};
  }
  return Verdict(all_pass, all_pass ? check.pass : detail);
}

}  // namespace

const ColumnMean* Columns::Find(const std::string& machine, const std::string& workload,
                                const std::string& policy, const std::string& variant) const {
  const auto it = by_key.find(Key(machine, workload, policy, variant));
  return it == by_key.end() ? nullptr : &it->second;
}

// Schema sanity: a Linux-4K run is its own baseline by construction, so its
// improvement must be exactly zero in every row.
CheckResult BaselineImprovementZero(const Columns& columns) {
  if (columns.baseline_rows == 0) {
    return {"", CheckStatus::kSkip, "no Linux-4K rows"};
  }
  return Verdict(columns.nonzero_baselines == 0,
                 Fmt("%.0f of %.0f Linux-4K rows nonzero", columns.nonzero_baselines,
                     columns.baseline_rows));
}

// Robustness (DESIGN.md Section 12): under the frag fault profile the
// target-node contiguity a 2MB migration needs mostly isn't there, so on the
// migration-rescued SSCA column (machine A) always-2M Carrefour-2M — whose
// whole rescue rides on moving 2MB pages — falls off a cliff, while
// Carrefour-LP observes the failures, discounts its migration estimate and
// pivots to splitting + 4KB migration: its loss vs its own fault-free run
// stays bounded and strictly below Carrefour-2M's.
CheckResult GracefulUnderFrag(const Columns& columns) {
  constexpr double kGracefulLossPct = 35.0;
  const auto find = [&columns](const char* policy, const char* variant) {
    return columns.Find("machineA", "SSCA.20", policy, variant);
  };
  const ColumnMean* lp_off = find("Carrefour-LP", kFaultsOff);
  const ColumnMean* lp_frag = find("Carrefour-LP", kFaultsFrag);
  const ColumnMean* c2m_off = find("Carrefour-2M", kFaultsOff);
  const ColumnMean* c2m_frag = find("Carrefour-2M", kFaultsFrag);
  if (!lp_off || !lp_frag || !c2m_off || !c2m_frag) {
    return {"", CheckStatus::kSkip,
            "need (machineA, SSCA.20) under Carrefour-LP and Carrefour-2M at faults=off and "
            "faults=frag (run fault_grace)"};
  }
  const double lp_loss = lp_off->improvement() - lp_frag->improvement();
  const double c2m_loss = c2m_off->improvement() - c2m_frag->improvement();
  return Verdict(lp_loss <= kGracefulLossPct && c2m_loss > lp_loss,
                 Fmt("frag costs Carrefour-LP %.1f points vs Carrefour-2M %.1f (LP bound: 35.0)",
                     lp_loss, c2m_loss));
}

// The mechanism half of the mmap-churn check: the always-2M column must show
// organic allocation failures, with fault injection off.
bool OrganicAllocFailures(const ColumnMean&, const ColumnMean& thp, std::string* detail) {
  *detail += Fmt("; %.0f organic alloc failures under always-2M (need > 0)",
                 thp.alloc_failures(), 0.0);
  return thp.alloc_failures() > 0.0;
}

std::vector<CheckResult> EvaluatePaperChecks(const std::vector<ResultRow>& rows) {
  return EvaluatePaperChecks(Aggregate(rows));
}

std::vector<CheckResult> EvaluatePaperChecks(const std::vector<AggregateRow>& aggregates) {
  // A group holds the seed mean of `runs` rows; reconstituting the
  // per-column sums as mean x runs pools the groups across benches.
  Columns columns;
  for (const AggregateRow& group : aggregates) {
    if (!group.variant.empty() && group.variant != kFaultsOff && group.variant != kFaultsFrag) {
      continue;
    }
    ColumnMean& column =
        columns.by_key[Key(group.machine, group.workload, group.policy, group.variant)];
    column.improvement_sum += group.mean_improvement_pct * group.runs;
    column.lar_sum += group.lar_pct * group.runs;
    column.alloc_failure_sum +=
        (group.thp_fallback_faults + group.buddy_alloc_failures) * group.runs;
    column.rows += group.runs;
    if (group.variant.empty() && group.policy == "Linux-4K") {
      // min/max, not the mean: rows of +1 and -1 must fail too. A group
      // with any nonzero row counts all of its rows.
      columns.baseline_rows += group.runs;
      if (group.min_improvement_pct != 0.0 || group.max_improvement_pct != 0.0) {
        columns.nonzero_baselines += group.runs;
      }
    }
  }
  std::vector<CheckResult> results;
  for (const Claim& claim : Claims()) {
    for (const Check& check : claim.checks) {
      results.push_back(check.shape == Check::kCompare ? EvaluateCompare(check, columns)
                        : check.shape == Check::kBand  ? EvaluateBand(check, columns)
                                                       : check.custom(columns));
      results.back().name = check.id;
    }
  }
  return results;
}

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
