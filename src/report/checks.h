// Executable reproduction claims: the paper's qualitative expectations
// (Figures 1-5, Tables 1-3) expressed as assertions over seed-aggregated
// results columns, evaluated by `numalp_report --check`. Each check SKIPs when
// the loaded rows don't cover its (machine, workload, policy) columns —
// a smoke run of a few benches checks only what it measured — and FAILs
// only when present data contradicts the paper, so a qualitative
// reproduction regression fails CI (DESIGN.md Section 6).
#ifndef NUMALP_SRC_REPORT_CHECKS_H_
#define NUMALP_SRC_REPORT_CHECKS_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/report/aggregate.h"
#include "src/report/result_row.h"

namespace numalp::report {

enum class CheckStatus { kPass, kFail, kSkip };

struct CheckResult {
  std::string name;
  CheckStatus status = CheckStatus::kSkip;
  std::string detail;  // the compared numbers, or why the check skipped
};

// Evaluates every paper expectation against seed-aggregated groups (from
// Aggregate, or a parsed bench_summary.json): each group contributes its
// seed mean weighted by its run count, pooling groups of one (machine,
// workload, policy) across benches. Variant-tagged groups (sweeps, 1GB
// backing) are excluded — the expectations describe the default
// configurations — except the fault sweep's faults=off/faults=frag columns,
// which one check reads. `numalp_report --from-summary BENCH_fig2_fig3.json
// --check` runs this on the committed baseline itself.
std::vector<CheckResult> EvaluatePaperChecks(const std::vector<AggregateRow>& aggregates);

// The same checks over raw rows: EvaluatePaperChecks(Aggregate(rows)).
std::vector<CheckResult> EvaluatePaperChecks(const std::vector<ResultRow>& rows);

// True when no check failed (skips don't count against).
bool AllPassed(const std::vector<CheckResult>& results);

// One "PASS/FAIL/SKIP name: detail" line per check.
void PrintCheckResults(std::ostream& out, const std::vector<CheckResult>& results);

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_CHECKS_H_
