// numalp_report — aggregates a directory of JSONL runs (written by the
// bench/example/tool sinks via --out-dir) into the paper's figures and
// tables, an optional committable bench_summary.json, and the executable
// qualitative reproduction checks (--check: exit 1 if any present-data
// check fails; missing columns SKIP). A row whose status is not "ok" (a
// failed cell) exits 2 naming its file and line, before anything is
// written. The flags are the settings rows below; --help prints them.
//
// See REPRODUCING.md for the full workflow and DESIGN.md Section 6 for the
// row schema this consumes.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "src/report/aggregate.h"
#include "src/report/checks.h"
#include "src/report/options.h"

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string format = "md";
  std::string summary_path;
  std::string from_summary_path;
  bool check = false;
  numalp::report::ParseFlags(
      argc, argv, "numalp_report",
      "numalp_report — aggregate JSONL results into figures, a summary JSON and qualitative "
      "checks\n\nusage: numalp_report [dir|file.jsonl ...] [options]   (default input: "
      "./results)\n",
      {{"--format", numalp::report::OneOf(&format, {"md", "csv", "jsonl"}),
        "aggregate output format (default: md figures/tables)"},
       {"--summary", numalp::report::Text(&summary_path, "FILE"),
        "also write the aggregates as a bench_summary.json"},
       {"--from-summary", numalp::report::Text(&from_summary_path, "FILE"),
        "load a committed bench_summary.json instead of JSONL rows (e.g. --from-summary "
        "BENCH_fig2_fig3.json --check asserts the committed baseline)"},
       {"--check", numalp::report::Presence(&check),
        "evaluate the paper's qualitative expectations; exit 1 when present data "
        "contradicts the paper"}},
      &inputs);
  if (!from_summary_path.empty()) {
    // Baseline mode: parse the committed summary and evaluate against it —
    // no row loading, no re-aggregation. Flags that only make sense for the
    // row path are rejected rather than silently ignored.
    if (!inputs.empty() || !summary_path.empty()) {
      std::fprintf(stderr,
                   "numalp_report: --from-summary replaces row inputs; it cannot be "
                   "combined with input paths or --summary\n");
      return 2;
    }
    std::ifstream in(from_summary_path);
    if (!in) {
      std::fprintf(stderr, "numalp_report: cannot read %s\n", from_summary_path.c_str());
      return 2;
    }
    const std::string contents((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    std::vector<numalp::report::AggregateRow> aggregates;
    std::string error;
    if (!numalp::report::ParseSummaryJson(contents, &aggregates, &error)) {
      std::fprintf(stderr, "numalp_report: %s: %s\n", from_summary_path.c_str(),
                   error.c_str());
      return 2;
    }
    if (format == "csv") {
      numalp::report::WriteAggregatesCsv(std::cout, aggregates);
    } else if (format == "jsonl") {
      numalp::report::WriteAggregatesJsonl(std::cout, aggregates);
    } else {
      std::printf("# numalp committed baseline %s — %zu columns\n\n",
                  from_summary_path.c_str(), aggregates.size());
      numalp::report::PrintAggregates(std::cout, aggregates);
    }
    if (check) {
      const auto results = numalp::report::EvaluatePaperChecks(aggregates);
      numalp::report::PrintCheckResults(format == "md" ? std::cout : std::cerr, results);
      if (!numalp::report::AllPassed(results)) {
        return 1;
      }
    }
    return 0;
  }
  if (inputs.empty()) {
    inputs.push_back("results");
  }

  std::vector<numalp::report::ParseIssue> issues;
  std::vector<numalp::report::ResultRow> rows;
  for (const std::string& input : inputs) {
    std::vector<numalp::report::ResultRow> loaded =
        numalp::report::LoadResults(input, &issues);
    rows.insert(rows.end(), loaded.begin(), loaded.end());
  }
  bool refused = false;
  for (const auto& issue : issues) {
    std::fprintf(stderr, "numalp_report: %s:%d: %s\n", issue.file.c_str(), issue.line,
                 issue.message.c_str());
    refused = refused || issue.refused;
  }
  // A failed cell's row carries no measurement, and a torn line is part of
  // a sweep that did not finish: averaging around either would pass a stub
  // or a partial sweep off as a result, so the whole input is refused.
  if (refused) {
    return 2;
  }
  if (rows.empty()) {
    std::fprintf(stderr, "numalp_report: no rows loaded from");
    for (const std::string& input : inputs) {
      std::fprintf(stderr, " %s", input.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  const std::vector<numalp::report::AggregateRow> aggregates =
      numalp::report::Aggregate(rows);

  if (format == "csv") {
    numalp::report::WriteAggregatesCsv(std::cout, aggregates);
  } else if (format == "jsonl") {
    numalp::report::WriteAggregatesJsonl(std::cout, aggregates);
  } else {
    std::printf("# numalp results — %zu rows, %zu columns\n\n", rows.size(),
                aggregates.size());
    numalp::report::PrintAggregates(std::cout, aggregates);
  }

  if (!summary_path.empty()) {
    std::ofstream summary(summary_path, std::ios::trunc);
    if (!summary) {
      std::fprintf(stderr, "numalp_report: cannot open %s\n", summary_path.c_str());
      return 2;
    }
    numalp::report::WriteSummaryJson(summary, aggregates);
  }

  if (check) {
    const auto results = numalp::report::EvaluatePaperChecks(aggregates);
    numalp::report::PrintCheckResults(format == "md" ? std::cout : std::cerr, results);
    if (!numalp::report::AllPassed(results)) {
      return 1;
    }
  }
  return 0;
}
