// Field-by-field comparison of two simulation runs, shared by every
// bit-identity test and by the whole-engine golden (tests/golden/). A
// mismatch is reported at the first epoch that diverges, naming the field,
// so a failing identity test says where a run went wrong and not only that
// its final row differs.
#ifndef NUMALP_TESTS_ORACLES_IDENTITY_H_
#define NUMALP_TESTS_ORACLES_IDENTITY_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/report/result_row.h"

namespace numalp {

using NamedFields = std::vector<std::pair<std::string, std::string>>;

// Round-trip decimal form of a double: equal strings <=> equal bits (up to
// the sign of zero and NaN payloads, which no simulated metric produces).
inline std::string ExactDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The per-epoch fields every identity check compares: every EpochRecord
// field, NumaMetrics included.
inline NamedFields EpochFields(const EpochRecord& record) {
  const NumaMetrics& m = record.metrics;
  return {{"wall", std::to_string(record.wall)},
          {"policy_overhead", std::to_string(record.policy_overhead)},
          {"in_setup", std::to_string(record.in_setup)},
          {"migrations", std::to_string(record.migrations)},
          {"splits", std::to_string(record.splits)},
          {"promotions", std::to_string(record.promotions)},
          {"thp_coverage", ExactDouble(record.thp_coverage)},
          {"thp_alloc_enabled", std::to_string(record.thp_alloc_enabled)},
          {"thp_promote_enabled", std::to_string(record.thp_promote_enabled)},
          {"lar_pct", ExactDouble(m.lar_pct)},
          {"imbalance_pct", ExactDouble(m.imbalance_pct)},
          {"pamup_pct", ExactDouble(m.pamup_pct)},
          {"nhp", std::to_string(m.nhp)},
          {"psp_pct", ExactDouble(m.psp_pct)},
          {"walk_l2_miss_frac", ExactDouble(m.walk_l2_miss_frac)},
          {"max_fault_time_share", ExactDouble(m.max_fault_time_share)},
          {"est_current_lar", ExactDouble(record.est_current_lar)},
          {"est_carrefour_lar", ExactDouble(record.est_carrefour_lar)},
          {"est_split_lar", ExactDouble(record.est_split_lar)}};
}

// Run-level totals, including the cumulative page count and the PAMUP/NHP/PSP
// the run computed from its cumulative page aggregates.
inline NamedFields RunFields(const RunResult& run) {
  std::string node_requests;
  for (const std::uint64_t count : run.node_request_totals) {
    node_requests += std::to_string(count) + ',';
  }
  return {{"total_cycles", std::to_string(run.total_cycles)},
          {"measured_cycles", std::to_string(run.measured_cycles)},
          {"epochs", std::to_string(run.epochs)},
          {"total_migrations", std::to_string(run.total_migrations)},
          {"total_splits", std::to_string(run.total_splits)},
          {"total_promotions", std::to_string(run.total_promotions)},
          {"total_policy_overhead", std::to_string(run.total_policy_overhead)},
          {"accesses", std::to_string(run.totals.accesses)},
          {"dram_local", std::to_string(run.totals.dram_local)},
          {"dram_remote", std::to_string(run.totals.dram_remote)},
          {"walk_l2_miss", std::to_string(run.totals.walk_l2_miss)},
          {"node_request_totals", node_requests},
          {"final_thp_coverage", ExactDouble(run.final_thp_coverage)},
          {"cumulative_pages", std::to_string(run.sampled_pages)},
          {"pamup_pct", ExactDouble(run.PamupPct())},
          {"nhp", std::to_string(run.Nhp())},
          {"psp_pct", ExactDouble(run.PspPct())}};
}

// "field: a != b" for the first differing field, or "" when all are equal.
inline std::string FirstFieldDifference(const NamedFields& a, const NamedFields& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].second != b[i].second) {
      return a[i].first + ": " + a[i].second + " != " + b[i].second;
    }
  }
  return "";
}

// Where two runs first diverge — "epoch E field: a != b", "epoch count:
// ...", or "run field: a != b" — or "" when they are identical. Epochs are
// compared first, in order: a divergence surfaces where it began rather
// than in the totals it eventually perturbs.
inline std::string FirstRunDifference(const RunResult& a, const RunResult& b) {
  const std::size_t common = std::min(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < common; ++e) {
    const std::string diff =
        FirstFieldDifference(EpochFields(a.history[e]), EpochFields(b.history[e]));
    if (!diff.empty()) {
      return "epoch " + std::to_string(e) + " " + diff;
    }
  }
  if (a.history.size() != b.history.size()) {
    return "epoch count: " + std::to_string(a.history.size()) +
           " != " + std::to_string(b.history.size());
  }
  const std::string diff = FirstFieldDifference(RunFields(a), RunFields(b));
  return diff.empty() ? diff : "run " + diff;
}

inline void ExpectIdenticalRuns(const RunResult& a, const RunResult& b,
                                const std::string& where = "") {
  EXPECT_EQ(FirstRunDifference(a, b), "") << where;
}

// The run through the real row schema as "name=value|..." — "identical"
// then means the committed CSV/JSONL bytes, and a mismatch names its field.
inline std::string SerializeRow(const RunSpec& spec, const RunResult& run) {
  const report::ResultRow row =
      report::MakeResultRow("identity", spec, run, /*baseline=*/nullptr,
                            /*seed_index=*/0, /*clock_ghz=*/2.1);
  std::string out;
  for (const report::ResultField& field : report::ResultSchema()) {
    if (!out.empty()) {
      out += '|';
    }
    out += field.name;
    out += '=';
    out += report::FieldToString(row, field);
  }
  return out;
}

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLES_IDENTITY_H_
