// Executable reproduction claims: the paper's qualitative expectations
// (Figures 1-5, Tables 1-3) expressed as assertions over seed-aggregated
// results columns, evaluated by `numalp_report --check`. A check is data in
// its row of the claims table (claims.h): one of a few predicate shapes, or
// a small named function where no shape fits. Each check SKIPs when the
// loaded rows don't cover its (machine, workload, policy) columns — a smoke
// run of a few benches checks only what it measured — and FAILs only when
// present data contradicts the paper, so a qualitative reproduction
// regression fails CI (DESIGN.md Section 6).
#ifndef NUMALP_SRC_REPORT_CHECKS_H_
#define NUMALP_SRC_REPORT_CHECKS_H_

#include <iosfwd>
#include <map>
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

// Seed-averaged view of one results column, pooled across benches (fig2 and
// fig3 both measuring THP on CG.D is one column).
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

// The columns the checks read: the default configurations (variant "") and
// the fault sweep's faults=off / faults=frag columns. Other variant-tagged
// groups (sweeps, 1GB backing) are excluded — the expectations describe the
// default configurations.
struct Columns {
  std::map<std::string, ColumnMean> by_key;  // machine|workload|policy|variant
  int baseline_rows = 0;      // default-configuration Linux-4K rows
  int nonzero_baselines = 0;  // ...in groups with a nonzero improvement
  const ColumnMean* Find(const std::string& machine, const std::string& workload,
                         const std::string& policy, const std::string& variant = "") const;
};

enum class Field { kImprovement, kLar };
enum class Op { kLess, kGreater, kAtLeast };

// One check of a claims row. The shapes:
//   kCompare  column x `op` column y + floor on `field`, on every listed
//             machine that measured both (y null: against 0, the sign of x).
//             Each measured machine adds `detail` over (x, y), prefixed
//             "machine: " and joined by "; " when several are listed;
//             `rider`, when set, is a further condition that appends its
//             own evidence.
//   kBand     x's improvement >= y's - floor on every measured (machine,
//             workload) pair; with `ua_lar_rider` a UA column must also keep
//             x's LAR within a point of y's. A failing pair adds
//             "machine/workload" + `detail`; all passing reads `pass`.
//   kCustom   `custom` computes status and detail.
// A check with no measured column SKIPs: kCompare names the missing
// columns (plus "(run R)" when `run` is set), kBand reads `skip`.
struct Check {
  enum Shape { kCompare, kBand, kCustom };
  const char* id;
  Shape shape = kCompare;
  std::vector<const char*> machines = {};
  std::vector<const char*> workloads = {};  // kCompare: exactly one
  const char* x = nullptr;  // policy names
  const char* y = nullptr;
  Field field = Field::kImprovement;
  Op op = Op::kAtLeast;
  double floor = 0.0;
  const char* detail = nullptr;
  const char* run = nullptr;
  const char* pass = nullptr;
  const char* skip = nullptr;
  bool ua_lar_rider = false;
  bool (*rider)(const ColumnMean& x, const ColumnMean& y, std::string* detail) = nullptr;
  CheckResult (*custom)(const Columns& columns) = nullptr;
};

// The checks no shape covers, referenced from their claims rows.
CheckResult BaselineImprovementZero(const Columns& columns);
CheckResult GracefulUnderFrag(const Columns& columns);
bool OrganicAllocFailures(const ColumnMean& lp, const ColumnMean& thp, std::string* detail);

// Evaluates every claims row's checks, in table order, against
// seed-aggregated groups (from Aggregate, or a parsed bench_summary.json):
// each group contributes its seed mean weighted by its run count, pooling
// groups of one (machine, workload, policy) across benches.
// `numalp_report --from-summary BENCH_fig2_fig3.json --check` runs this on
// the committed baseline itself.
std::vector<CheckResult> EvaluatePaperChecks(const std::vector<AggregateRow>& aggregates);

// The same checks over raw rows: EvaluatePaperChecks(Aggregate(rows)).
std::vector<CheckResult> EvaluatePaperChecks(const std::vector<ResultRow>& rows);

// True when no check failed (skips don't count against).
bool AllPassed(const std::vector<CheckResult>& results);

// One "PASS/FAIL/SKIP name: detail" line per check.
void PrintCheckResults(std::ostream& out, const std::vector<CheckResult>& results);

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_CHECKS_H_
