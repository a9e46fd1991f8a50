// The one command-line parser shared by every bench, example and tool, so
// --help output and the results-pipeline flags (--format, --out-dir, --jobs,
// --seed, --epochs, --accesses, --shards) are uniform across all binaries
// (DESIGN.md Section 6). Binaries add tool-specific flags as ExtraFlags; the workload/
// machine/policy name parsers that numalp_run and quickstart historically
// each hand-rolled live here too.
#ifndef NUMALP_SRC_REPORT_OPTIONS_H_
#define NUMALP_SRC_REPORT_OPTIONS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp::report {

// Identity of the invoking binary: names the --out-dir files and the rows'
// `bench` field, and fills --help.
struct ToolInfo {
  const char* name;         // binary name, e.g. "fig1_thp_vs_linux"
  const char* bench_id;     // ResultRow::bench value and out-dir file stem
  const char* description;  // one line for --help
  const char* extra_usage = "";  // help text for tool-specific flags
};

// A tool-specific flag. `handle` receives the value (nullptr when
// takes_value is false) and returns false to reject it.
struct ExtraFlag {
  const char* flag;
  bool takes_value = true;
  std::function<bool(const char* value)> handle;
};

struct Options {
  std::string format = "md";  // stdout format: md | csv | jsonl
  std::string out_dir;        // also write <out_dir>/<bench_id>.{csv,jsonl}
  int jobs = 0;               // 0 = NUMALP_JOBS, then hardware concurrency
  SimConfig sim;              // env overrides applied, then flags

  // Runner resilience (DESIGN.md Section 12). resume continues a crashed
  // --out-dir grid from its manifest; -1 keeps the runner's env-derived
  // defaults for the watchdog deadline and the retry budget.
  bool resume = false;
  long long cell_deadline_ms = -1;
  int cell_retries = -1;

  // Prose and explanatory text belong on stdout only in markdown mode;
  // csv/jsonl stdout must stay machine-parseable.
  bool human() const { return format == "md"; }
};

// Parses argv. Standard flags: --format, --out-dir, --jobs, --seed,
// --epochs, --accesses, --shards, --help (prints uniform usage, exits 0).
// Unknown flags or bad values print usage to stderr and exit 2; a malformed
// integer or fault setting (flag or environment) prints a message naming it
// and exits 2.
Options ParseToolArgs(int argc, char** argv, const ToolInfo& info,
                      const std::vector<ExtraFlag>& extras = {});

// Name parsers shared by the CLI tools (historically duplicated between
// numalp_run and quickstart, with divergent aliases).
std::optional<BenchmarkId> ParseWorkloadName(const std::string& name);
// Comma-joined list of every name ParseWorkloadName accepts, for error
// messages ("unknown workload" responses must name the alternatives).
std::string KnownWorkloadNames();
std::optional<PolicyKind> ParsePolicyName(const std::string& name);
// Accepts "A"/"machineA", "B"/"machineB", and the datacenter presets
// "epyc8", "snc16", "cxl".
std::optional<Topology> ParseMachineName(const std::string& name);

// Ready-made ExtraFlags for the common tool-specific selectors: parse the
// value with the matching name parser above and assign into *out (which
// must outlive the ParseToolArgs call). One declaration per tool instead
// of a hand-rolled closure per binary.
// When `trace_file` is non-null the flag additionally accepts
// "trace:FILE" (replay a recorded trace): FILE lands in *trace_file and
// *out is left untouched. Unknown names print the valid alternatives.
ExtraFlag WorkloadFlag(BenchmarkId* out, std::string* trace_file = nullptr);
ExtraFlag MachineFlag(Topology* out);
ExtraFlag PolicyFlag(PolicyKind* out);

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_OPTIONS_H_
