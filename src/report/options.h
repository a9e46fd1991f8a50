// The one settings parser shared by every bench, example and tool, so
// --help output and the results-pipeline flags (--format, --out-dir, --jobs,
// --seed, --epochs, --accesses, --shards) are uniform across all binaries
// (DESIGN.md Section 6). Every setting is one row of a table: its flag, its
// value's kind and range, where the value goes, and its --help line; the
// environment sets nothing. UniformSettings is the shared table; binaries
// pass their own rows to ParseToolArgs. The workload/machine/policy
// name parsers that numalp_run and quickstart historically each hand-rolled
// live here too.
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
};

struct Options {
  std::string format = "md";  // stdout format: md | csv | jsonl
  std::string out_dir;        // also write <out_dir>/<bench_id>.{csv,jsonl}
  int jobs = 0;               // --jobs; 0 = hardware concurrency
  SimConfig sim;              // the simulation flags

  // Continue a crashed --out-dir grid from its manifest (DESIGN.md
  // Section 12.4).
  bool resume = false;

  // Prose and explanatory text belong on stdout only in markdown mode;
  // csv/jsonl stdout must stay machine-parseable.
  bool human() const { return format == "md"; }
};

// A setting's value: the --help placeholder ("N", "FILE"; empty for a flag
// that takes none) and the strict parser that stores it. `store` receives the
// setting's name (for messages) and the value text (nullptr for a flag that
// takes none); a malformed value throws std::invalid_argument naming it.
struct SettingValue {
  std::string placeholder;
  std::function<void(const std::string& setting, const char* text)> store;
};

// One row of the settings table.
struct Setting {
  const char* flag;
  SettingValue value;
  std::string help;  // one line for --help
};

// The whole of `text` as a base-10 integer in [min, max]; anything else
// throws std::invalid_argument naming `setting`.
long long ParseInt(const std::string& setting, const char* text, long long min, long long max);

// The value kinds a binary's own rows use. Each parses the whole text.
template <typename T>
SettingValue Int(T* field, long long min, long long max) {  // an integer in [min, max]
  return {"N", [=](const std::string& setting, const char* text) {
            *field = static_cast<T>(ParseInt(setting, text, min, max));
          }};
}
SettingValue Text(std::string* field, const char* placeholder);  // any non-empty text
SettingValue Presence(bool* field);  // takes no value; sets *field
SettingValue OneOf(std::string* field, std::vector<std::string> choices);  // one of `choices`

// The settings every ParseToolArgs binary shares, storing into *options.
std::vector<Setting> UniformSettings(Options* options);

// Parses argv against UniformSettings plus `extras` (the binary's own rows,
// pointing at its own fields) through ParseFlags, and returns the result.
// Before that, any NUMALP_* environment variable prints a message naming it
// (and, for a former environment knob, the flag that replaced it) and exits
// 2: the environment sets nothing, and an ignored NUMALP_MAX_EPOCHS=3 would
// quietly run the default length. `launcher`, when set, is the command that
// runs the binary ("numalp_bench"), shown before its name in the usage.
Options ParseToolArgs(int argc, char** argv, const ToolInfo& info,
                      const std::vector<Setting>& extras = {}, const char* launcher = nullptr);

// The table parser: argv against `settings`, --help printing `head` (title
// and usage line) above the rows and exiting 0. An unknown flag or a missing
// value prints a message naming it, prefixed "tool: ", then the usage, to
// stderr and exits 2; a malformed value prints a message naming the setting
// and exits 2. Arguments that are not flags go to *positional, or are
// rejected like an unknown flag when it is null. numalp_report and
// numalp_tracegen, which take no uniform setting, call it directly.
void ParseFlags(int argc, char** argv, const char* tool, const std::string& head,
                const std::vector<Setting>& settings,
                std::vector<std::string>* positional = nullptr);

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

// Ready-made rows for the common tool-specific selectors: parse the value
// with the matching name parser above and assign into *out (which must
// outlive the ParseToolArgs call); *out's value is the --help default.
// When `trace_file` is non-null the flag additionally accepts
// "trace:FILE" (replay a recorded trace): FILE lands in *trace_file and
// *out is left untouched. Unknown names are rejected naming the flag.
Setting WorkloadFlag(BenchmarkId* out, std::string* trace_file = nullptr);
Setting MachineFlag(Topology* out);
Setting PolicyFlag(PolicyKind* out);

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_OPTIONS_H_
