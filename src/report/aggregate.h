// Aggregation for numalp_report: loads JSONL rows written by the sinks
// (sink.h — the parser consumes the same ResultSchema() the serializer
// does), groups them by results column (bench, machine, workload, policy,
// variant), and averages over seeds: accumulate in row order, then multiply
// by the reciprocal of the run count once (DESIGN.md Sections 5-6). This is
// the only seed aggregation in the tree; it feeds the figure/table renderer,
// the committable bench_summary.json (BENCH_*.json), and the qualitative
// paper checks (checks.h).
#ifndef NUMALP_SRC_REPORT_AGGREGATE_H_
#define NUMALP_SRC_REPORT_AGGREGATE_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/report/result_row.h"

namespace numalp::report {

// Parses one JSONL line (a flat object of strings, numbers and booleans)
// into `row`. Unknown keys are ignored (schema growth stays readable);
// missing keys keep their defaults. Returns false with *error set on
// malformed input.
bool ParseJsonlLine(const std::string& line, ResultRow* row, std::string* error);

// Scans one flat JSON object of strings, numbers and booleans — the
// one-line shape the JSONL sink and the --resume manifest write — handing
// each member to `set(key, value, quoted)`, which returns false to reject
// the value. Returns false with *error set on malformed syntax or a
// rejected value. Not a general JSON parser.
bool ScanFlatObject(const std::string& text,
                    const std::function<bool(const std::string& key, const std::string& value,
                                             bool quoted)>& set,
                    std::string* error);

struct ParseIssue {
  std::string file;
  int line = 0;
  std::string message;
  // A line that cannot be averaged: a malformed line (say, the torn tail a
  // killed run leaves), or a row whose status is not "ok", which carries no
  // measurement (a failed cell's stub row).
  bool refused = false;
};

// Loads every row of one .jsonl file; blank lines are skipped. Malformed
// lines are reported to `issues` (when non-null) as refused and skipped; a
// row whose status is not "ok" is loaded and also reported, as refused.
std::vector<ResultRow> LoadJsonlFile(const std::string& path, std::vector<ParseIssue>* issues);

// Loads every *.jsonl file under `path` (or `path` itself when it is a
// file), in sorted filename order so the row sequence is deterministic.
std::vector<ResultRow> LoadResults(const std::string& path, std::vector<ParseIssue>* issues);

// One results column: the seed-aggregated view of (bench, machine,
// workload, policy, variant) — the unit the paper's figures plot.
struct AggregateRow {
  std::string bench;
  std::string machine;
  std::string workload;
  std::string policy;
  std::string variant;
  int runs = 0;  // rows aggregated (the seed count)
  double mean_improvement_pct = 0.0;
  double min_improvement_pct = 0.0;
  double max_improvement_pct = 0.0;
  // Seed means of the paper metrics.
  double runtime_ms = 0.0;
  double lar_pct = 0.0;
  double imbalance_pct = 0.0;
  double pamup_pct = 0.0;
  double nhp = 0.0;
  double psp_pct = 0.0;
  double walk_l2_miss_pct = 0.0;
  double steady_fault_share_pct = 0.0;
  double max_fault_ms = 0.0;
  double thp_coverage_pct = 0.0;
  double overhead_pct = 0.0;
  double migrations = 0.0;
  double splits = 0.0;
  double promotions = 0.0;
  // Buddy-fragmentation telemetry means (DESIGN.md Section 14): the
  // mmap-churn check needs the organic allocation-failure evidence.
  double thp_fallback_faults = 0.0;
  double buddy_alloc_failures = 0.0;
  double frag_index_pct = 0.0;
};

// Groups rows by column. Column order is first appearance in `rows`, which
// for sink-written files is grid-coordinate order.
std::vector<AggregateRow> Aggregate(const std::vector<ResultRow>& rows);

// The committable summary artifact (BENCH_*.json shape): a versioned JSON
// document with one object per aggregate, keys in a fixed order.
void WriteSummaryJson(std::ostream& out, const std::vector<AggregateRow>& aggregates);

// Parses a summary document WriteSummaryJson produced back into aggregate
// groups, so `numalp_report --from-summary` can assert the paper checks
// against a committed BENCH_*.json without re-running the grids. Strict:
// every key WriteSummaryJson writes must be present with a well-formed
// value (`runs` a positive integer), or it returns false with *error naming
// the line and the key. Unknown keys are ignored so the schema can grow.
bool ParseSummaryJson(const std::string& contents, std::vector<AggregateRow>* out,
                      std::string* error);

// Renders the aggregates as the paper's figures/tables: per bench, an
// improvement pivot (workload rows x policy columns, one block per machine)
// followed by an aligned per-column metrics table.
void PrintAggregates(std::ostream& out, const std::vector<AggregateRow>& aggregates);

// Machine-readable aggregate output for numalp_report --format csv|jsonl.
void WriteAggregatesCsv(std::ostream& out, const std::vector<AggregateRow>& aggregates);
void WriteAggregatesJsonl(std::ostream& out, const std::vector<AggregateRow>& aggregates);

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_AGGREGATE_H_
