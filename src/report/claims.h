// The claims table: one row per reproduced result, in the shape of
// REPRODUCING.md's bench table (claims_doc_test holds the two equal). A row
// declares a bench — its ToolInfo, the paper section and the claim it
// reproduces, the sweep it runs, any settings of its own — and the checks
// (checks.h) that assert the claim on the measured columns; a row without
// checks is descriptive. `numalp_bench NAME` runs a row's sweep through a
// GridReport; `numalp_report --check` evaluates every row's checks in table
// order.
#ifndef NUMALP_SRC_REPORT_CLAIMS_H_
#define NUMALP_SRC_REPORT_CLAIMS_H_

#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/report/checks.h"
#include "src/report/collector.h"
#include "src/report/options.h"

namespace numalp::report {

// What a bench runs: declarative grids (executed together on one pool), or,
// for sweeps the grid cannot express, a flat cell list streamed in order.
struct Sweep {
  std::vector<ExperimentGrid> grids;
  std::vector<RunSpec> cells;
  std::vector<GridReport::CellMeta> meta;

  // Appends `base` under Linux-4K as a baseline cell, then `base` under each
  // `compared` policy against it, all tagged (variant, seed_index). Returns
  // the baseline's index, for AddCompared.
  int AddBaseline(RunSpec base, const std::string& variant, int seed_index = 0,
                  const std::vector<PolicyKind>& compared = {});
  // Appends `cell` as is, compared against the baseline at `baseline` (and
  // carrying its seed index).
  void AddCompared(const RunSpec& cell, const std::string& variant, int baseline);
};

// What a sweep is built from: the parsed uniform settings, plus the values
// of the settings only some rows declare.
struct BenchInputs {
  Options options;
  std::string trace_dir;
  int trace_epochs = 0;
};

struct Claim {
  ToolInfo info;
  const char* section;  // what it reproduces: "Figure 1", "Section 4.2", ...
  const char* claim;    // the expected qualitative outcome
  Sweep (*sweep)(const BenchInputs& inputs);
  std::vector<Check> checks = {};  // empty: the claim is descriptive
  // The row's own settings, storing into *inputs (null: none).
  std::vector<Setting> (*settings)(BenchInputs* inputs) = nullptr;
};

const std::vector<Claim>& Claims();

// The row whose info.name is `name`, or null.
const Claim* FindClaim(const std::string& name);

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_CLAIMS_H_
