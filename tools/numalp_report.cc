// numalp_report — aggregates a directory of JSONL runs (written by the
// bench/example/tool sinks via --out-dir) into the paper's figures and
// tables, an optional committable bench_summary.json, and the executable
// qualitative reproduction checks.
//
//   numalp_report [dir|file.jsonl ...]      (default: ./results)
//                 [--format md|csv|jsonl]   aggregate output format
//                 [--summary FILE]          write a bench_summary.json
//                 [--from-summary FILE]     load a committed bench_summary.json
//                                           instead of JSONL rows (checks run
//                                           against the baseline artifact)
//                 [--check]                 evaluate the paper expectations;
//                                           exit 1 if any present-data check
//                                           fails (missing columns SKIP)
//
// See REPRODUCING.md for the full workflow and DESIGN.md Section 6 for the
// row schema this consumes.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "src/report/aggregate.h"
#include "src/report/checks.h"

namespace {

void Usage(std::FILE* out) {
  std::fprintf(out,
               "numalp_report — aggregate JSONL results into figures, a summary JSON and"
               " qualitative checks\n\n"
               "usage: numalp_report [dir|file.jsonl ...] [options]   (default input:"
               " ./results)\n"
               "  --format md|csv|jsonl  aggregate output format (default: md"
               " figures/tables)\n"
               "  --summary FILE         also write the aggregates as a bench_summary.json\n"
               "  --from-summary FILE    load a committed bench_summary.json instead of\n"
               "                         JSONL rows (e.g. --from-summary BENCH_fig2_fig3.json\n"
               "                         --check asserts the committed baseline)\n"
               "  --check                evaluate the paper's qualitative expectations;\n"
               "                         exit 1 when present data contradicts the paper\n"
               "  --help                 this message\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string format = "md";
  std::string summary_path;
  std::string from_summary_path;
  bool check = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else if (arg == "--format") {
      format = next();
      if (format != "md" && format != "csv" && format != "jsonl") {
        std::fprintf(stderr, "numalp_report: --format: expected md|csv|jsonl, got '%s'\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--summary") {
      summary_path = next();
    } else if (arg == "--from-summary") {
      from_summary_path = next();
    } else if (arg == "--check") {
      check = true;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage(stderr);
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
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
  for (const auto& issue : issues) {
    std::fprintf(stderr, "numalp_report: %s:%d: %s\n", issue.file.c_str(), issue.line,
                 issue.message.c_str());
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
    const auto results = numalp::report::EvaluatePaperChecks(rows);
    numalp::report::PrintCheckResults(format == "md" ? std::cout : std::cerr, results);
    if (!numalp::report::AllPassed(results)) {
      return 1;
    }
  }
  return 0;
}
