// The typed unit of the results pipeline: one ResultRow per executed grid
// cell, carrying the cell's coordinates (bench, machine, workload, policy,
// variant, seed) and every metric the paper reports, flattened from the
// RunResult and its EpochRecords. Field names and units are the JSONL/CSV
// schema documented in DESIGN.md Section 6; ResultSchema() is the single
// source of truth that the sinks (sink.h) and the aggregator's parser
// (aggregate.h) both consume, so serialization and parsing cannot diverge.
#ifndef NUMALP_SRC_REPORT_RESULT_ROW_H_
#define NUMALP_SRC_REPORT_RESULT_ROW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/core/simulation.h"

namespace numalp::report {

struct ResultRow {
  // Coordinates: where in the reproduction this run belongs.
  std::string bench;     // emitting figure/table id, e.g. "fig1"
  std::string machine;   // topology name, e.g. "machineB"
  std::string workload;  // workload name, e.g. "CG.D"
  std::string policy;    // PolicyKind name, e.g. "Carrefour-LP"
  std::string variant;   // sweep-point tag, e.g. "ibs=1/64"; "" for grid cells
  int seed_index = 0;    // position on the grid's seed axis
  std::uint64_t seed = 0;  // the fully-derived simulation seed

  // Run shape.
  bool completed = false;
  int epochs = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t measured_cycles = 0;  // steady-state (non-setup) epochs only
  double runtime_ms = 0.0;
  double improvement_pct = 0.0;  // vs the same-seed Linux-4K baseline

  // Paper metrics (Sections 2.2 / 3.1 vocabulary).
  double lar_pct = 0.0;
  double imbalance_pct = 0.0;
  double pamup_pct = 0.0;
  int nhp = 0;
  double psp_pct = 0.0;
  double walk_l2_miss_pct = 0.0;
  double steady_fault_share_pct = 0.0;
  double max_fault_ms = 0.0;
  double thp_coverage_pct = 0.0;

  // Policy activity, summed over the run's EpochRecords.
  std::uint64_t migrations = 0;
  std::uint64_t splits = 0;
  std::uint64_t promotions = 0;
  double overhead_pct = 0.0;  // policy overhead / total cycles

  // Reactive-component LAR estimates: mean over steady epochs where the
  // estimator ran (0 when the reactive component was inactive).
  double est_carrefour_lar_pct = 0.0;
  double est_split_lar_pct = 0.0;

  // Cell health and fault-injection telemetry (DESIGN.md Section 12).
  // status: "ok", or "failed: <reason>" for a cell that threw.
  // The fault_* counters are zero with faults off; the buddy_* fields are
  // filled on every run and explain fault-mode behavior (why 2MB
  // allocations failed) in numalp_report output.
  std::string status = "ok";
  std::uint64_t fault_alloc_failures = 0;
  std::uint64_t fault_migration_failures = 0;
  std::uint64_t fault_split_failures = 0;
  std::uint64_t fault_truncated_plans = 0;
  std::uint64_t fault_pressure_epochs = 0;
  std::uint64_t fault_promote_backoffs = 0;
  std::uint64_t fault_retried_migrations = 0;
  std::uint64_t fault_abandoned_pages = 0;
  std::uint64_t thp_fallback_faults = 0;
  double frag_index_pct = 0.0;
  int buddy_largest_free_order = -1;
  std::uint64_t buddy_free_2m_blocks = 0;
  std::uint64_t buddy_alloc_failures = 0;

  // Trace provenance and mmap-lifetime churn (DESIGN.md Section 14).
  // trace_source is "workload@machine#seed" from the trace header when the
  // run captured or replayed a trace, "" otherwise — a capture and its
  // replay carry the same value, keeping their rows byte-identical.
  std::string trace_source;
  std::uint64_t region_maps = 0;    // regions mapped after the run began
  std::uint64_t region_unmaps = 0;  // regions whose lifetime ended mid-run
  std::uint64_t unmapped_bytes = 0;
};

enum class FieldType { kString, kBool, kInt, kUint, kDouble };

// One schema entry: a name, a unit (for documentation; "" = dimensionless
// or a count), and the member it maps to. Exactly one member pointer is
// non-null, matching `type`.
struct ResultField {
  const char* name;
  const char* unit;
  FieldType type;
  std::string ResultRow::* s = nullptr;
  bool ResultRow::* b = nullptr;
  int ResultRow::* i = nullptr;
  std::uint64_t ResultRow::* u = nullptr;
  double ResultRow::* d = nullptr;
};

// The schema, in serialization order (coordinates first, then metrics).
const std::vector<ResultField>& ResultSchema();

// Canonical value serialization: doubles use the shortest round-trip form
// (std::to_chars), integers are decimal, bools are "true"/"false". Both the
// CSV and JSONL sinks emit exactly these strings, which is what makes
// serialize -> parse -> serialize the identity.
std::string FieldToString(const ResultRow& row, const ResultField& field);

// Parses `text` into the field; returns false on a malformed value.
bool FieldFromString(ResultRow& row, const ResultField& field, const std::string& text);

// Canonical shortest-round-trip double formatting (exposed for the sinks).
std::string CanonicalDouble(double value);

// JSON string-value escaping shared by every JSON writer (the JSONL sink
// and the aggregate/summary writers must not diverge).
std::string JsonEscape(const std::string& value);

// Flattens one executed cell into a row. `baseline` is the cell's same-seed
// Linux-4K baseline (improvement_pct is 0 when null or when the run is its
// own baseline); `clock_ghz` converts cycle counts to milliseconds.
ResultRow MakeResultRow(const std::string& bench, const RunSpec& spec, const RunResult& run,
                        const RunResult* baseline, int seed_index, double clock_ghz,
                        const std::string& variant = "");

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_RESULT_ROW_H_
