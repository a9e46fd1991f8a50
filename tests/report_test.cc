// Results-pipeline regression tests (DESIGN.md Section 6): the schema is
// the single source of truth (serialize -> parse -> serialize is the
// identity), CSV/JSONL output matches golden strings, GridReport output is
// byte-identical across jobs values, aggregation reproduces the seed-mean
// arithmetic, and the qualitative paper checks pass/fail/skip correctly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/report/aggregate.h"
#include "src/report/checks.h"
#include "src/report/collector.h"
#include "src/report/result_row.h"
#include "src/report/sink.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp::report {
namespace {

// A fully-populated row with awkward values: negative improvement, a
// non-round double, a comma in a string field.
ResultRow GoldenRow() {
  ResultRow row;
  row.bench = "fig1";
  row.machine = "machineB";
  row.workload = "CG.D";
  row.policy = "THP";
  row.variant = "a,b";
  row.seed_index = 2;
  row.seed = 42 + 2 * 7919;
  row.completed = true;
  row.epochs = 17;
  row.total_cycles = 123456789;
  row.measured_cycles = 100000000;
  row.runtime_ms = 61.728394500000001;
  row.improvement_pct = -43.25;
  row.lar_pct = 36.5;
  row.imbalance_pct = 59.0;
  row.pamup_pct = 8.125;
  row.nhp = 3;
  row.psp_pct = 34.0;
  row.walk_l2_miss_pct = 0.1;
  row.steady_fault_share_pct = 1.5;
  row.max_fault_ms = 2.75;
  row.thp_coverage_pct = 99.5;
  row.migrations = 1048;
  row.splits = 4;
  row.promotions = 1;
  row.overhead_pct = 0.79;
  row.est_carrefour_lar_pct = 96.9;
  row.est_split_lar_pct = 100.0;
  row.status = "ok";
  row.fault_alloc_failures = 7;
  row.fault_migration_failures = 5;
  row.fault_split_failures = 1;
  row.fault_truncated_plans = 2;
  row.fault_pressure_epochs = 3;
  row.fault_promote_backoffs = 4;
  row.fault_retried_migrations = 6;
  row.fault_abandoned_pages = 1;
  row.thp_fallback_faults = 9;
  row.frag_index_pct = 37.5;
  row.buddy_largest_free_order = 18;
  row.buddy_free_2m_blocks = 12;
  row.buddy_alloc_failures = 11;
  row.trace_source = "CG.D@machineB#15880";
  row.region_maps = 5;
  row.region_unmaps = 2;
  row.unmapped_bytes = 8388608;
  return row;
}

std::string Serialize(const ResultRow& row) {
  std::string out;
  for (const ResultField& field : ResultSchema()) {
    out += FieldToString(row, field);
    out += '\x1f';
  }
  return out;
}

TEST(ResultSchemaTest, NamesAreUniqueAndTyped) {
  const auto& schema = ResultSchema();
  EXPECT_EQ(schema.size(), 46u);
  for (std::size_t a = 0; a < schema.size(); ++a) {
    for (std::size_t b = a + 1; b < schema.size(); ++b) {
      EXPECT_STRNE(schema[a].name, schema[b].name);
    }
    // Exactly one member pointer set, matching the declared type.
    const ResultField& f = schema[a];
    const int set = (f.s != nullptr) + (f.b != nullptr) + (f.i != nullptr) +
                    (f.u != nullptr) + (f.d != nullptr);
    EXPECT_EQ(set, 1) << f.name;
  }
}

TEST(ResultSchemaTest, FieldStringsRoundTrip) {
  const ResultRow row = GoldenRow();
  ResultRow parsed;
  for (const ResultField& field : ResultSchema()) {
    ASSERT_TRUE(FieldFromString(parsed, field, FieldToString(row, field))) << field.name;
  }
  EXPECT_EQ(Serialize(row), Serialize(parsed));
}

TEST(ResultSchemaTest, DoubleSerializationIsShortestRoundTrip) {
  // Canonical doubles must parse back to the exact same bits.
  const ResultField* dbl_field = nullptr;
  for (const ResultField& candidate : ResultSchema()) {
    if (std::string(candidate.name) == "est_split_lar_pct") {
      dbl_field = &candidate;
    }
  }
  ASSERT_NE(dbl_field, nullptr);
  for (double value : {-43.25, 61.728394500000001, 0.1, 1e-12, 1.0 / 3.0}) {
    ResultRow row;
    const ResultField& field = *dbl_field;
    row.*(field.d) = value;
    ResultRow parsed;
    ASSERT_TRUE(FieldFromString(parsed, field, FieldToString(row, field)));
    EXPECT_EQ(parsed.*(field.d), value);
  }
}

TEST(CsvSinkTest, GoldenOutput) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.Write(GoldenRow());
  sink.Finish();
  EXPECT_EQ(
      out.str(),
      "bench,machine,workload,policy,variant,seed_index,seed,completed,epochs,"
      "total_cycles,measured_cycles,runtime_ms,improvement_pct,lar_pct,imbalance_pct,"
      "pamup_pct,nhp,psp_pct,walk_l2_miss_pct,steady_fault_share_pct,max_fault_ms,"
      "thp_coverage_pct,migrations,splits,promotions,overhead_pct,"
      "est_carrefour_lar_pct,est_split_lar_pct,status,fault_alloc_failures,"
      "fault_migration_failures,fault_split_failures,fault_truncated_plans,"
      "fault_pressure_epochs,fault_promote_backoffs,fault_retried_migrations,"
      "fault_abandoned_pages,thp_fallback_faults,frag_index_pct,"
      "buddy_largest_free_order,buddy_free_2m_blocks,buddy_alloc_failures,"
      "trace_source,region_maps,region_unmaps,unmapped_bytes\n"
      "fig1,machineB,CG.D,THP,\"a,b\",2,15880,true,17,123456789,100000000,"
      "61.7283945,-43.25,36.5,59,8.125,3,34,0.1,1.5,2.75,99.5,1048,4,1,0.79,96.9,100,"
      "ok,7,5,1,2,3,4,6,1,9,37.5,18,12,11,CG.D@machineB#15880,5,2,8388608\n");
}

TEST(JsonlSinkTest, GoldenOutputAndRoundTrip) {
  std::ostringstream out;
  JsonlSink sink(out);
  const ResultRow row = GoldenRow();
  sink.Write(row);
  sink.Finish();
  const std::string line = out.str();
  EXPECT_EQ(line.substr(0, 58),
            "{\"bench\":\"fig1\",\"machine\":\"machineB\",\"workload\":\"CG.D\",\"po");
  EXPECT_EQ(line.back(), '\n');

  ResultRow parsed;
  std::string error;
  ASSERT_TRUE(ParseJsonlLine(line.substr(0, line.size() - 1), &parsed, &error)) << error;
  EXPECT_EQ(Serialize(row), Serialize(parsed));

  // Serialize the parsed row again: byte-identical (canonical form).
  std::ostringstream again;
  JsonlSink sink2(again);
  sink2.Write(parsed);
  EXPECT_EQ(line, again.str());
}

TEST(JsonlParseTest, IgnoresUnknownKeysAndReportsMalformed) {
  ResultRow row;
  std::string error;
  EXPECT_TRUE(ParseJsonlLine(R"({"bench":"x","not_a_field":7,"epochs":3})", &row, &error));
  EXPECT_EQ(row.bench, "x");
  EXPECT_EQ(row.epochs, 3);
  EXPECT_FALSE(ParseJsonlLine(R"({"epochs":"three"})", &row, &error));
  EXPECT_FALSE(ParseJsonlLine("epochs: 3", &row, &error));
}

TEST(MarkdownSinkTest, AlignsColumns) {
  std::ostringstream out;
  MarkdownSink sink(out);
  sink.Write(GoldenRow());
  sink.Finish();
  const std::string text = out.str();
  EXPECT_NE(text.find("| bench |"), std::string::npos);
  EXPECT_NE(text.find("| fig1  |"), std::string::npos);
  EXPECT_NE(text.find("-43.25"), std::string::npos);  // human double formatting
}

SimConfig TinySim() {
  SimConfig sim;
  sim.max_epochs = 4;
  sim.accesses_per_thread_per_epoch = 512;
  return sim;
}

std::string RunGridThroughReport(int jobs) {
  auto out = std::make_unique<std::ostringstream>();
  std::ostringstream& stream = *out;
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kCG_D, BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  GridReport report(std::make_unique<JsonlSink>(stream), "test", jobs);
  report.Run(Sweep().AddGrid(grid));
  report.Finish();
  return stream.str();
}

// The acceptance-criteria regression: sink output is byte-identical at any
// jobs value, because the runner reports cells in index order.
TEST(GridReportTest, OutputIsByteIdenticalAcrossJobCounts) {
  const std::string serial = RunGridThroughReport(1);
  const std::string parallel = RunGridThroughReport(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(GridReportTest, RowsCarryCoordinatesAndBaselineImprovement) {
  std::ostringstream stream;
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kThp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  {
    GridReport report(std::make_unique<JsonlSink>(stream), "test", 4);
    report.Run(Sweep().AddGrid(grid));
  }
  std::istringstream lines(stream.str());
  std::string line;
  std::vector<ResultRow> rows;
  while (std::getline(lines, line)) {
    ResultRow row;
    std::string error;
    ASSERT_TRUE(ParseJsonlLine(line, &row, &error)) << error;
    rows.push_back(row);
  }
  // Per seed: the Linux-4K baseline, then the THP cell.
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].policy, "Linux-4K");
  EXPECT_EQ(rows[0].improvement_pct, 0.0);
  EXPECT_EQ(rows[0].seed_index, 0);
  EXPECT_EQ(rows[1].policy, "THP");
  EXPECT_EQ(rows[1].seed_index, 0);
  EXPECT_EQ(rows[2].seed_index, 1);
  EXPECT_EQ(rows[2].seed, CellSeed(grid.sim.seed, 1));
  EXPECT_EQ(rows[3].policy, "THP");
  EXPECT_EQ(rows[3].bench, "test");
  EXPECT_EQ(rows[3].workload, "WC");

  // The THP improvement matches ImprovementPct against the grid baseline.
  const GridResults results = RunGrid(grid, ExperimentRunner(1));
  EXPECT_EQ(rows[1].improvement_pct,
            ImprovementPct(results.Baseline(0, 0, 0), results.At(0, 0, 0, 0)));
}

TEST(GridReportTest, RunUsesDeclaredBaselineAndVariant) {
  std::ostringstream stream;
  const Topology topo = Topology::Tiny();
  Sweep sweep;
  sweep.AddBaseline({topo, MakeWorkloadSpec(BenchmarkId::kWC, topo), {}, TinySim()},
                    "sweep=a", 0, {PolicyKind::kThp});
  {
    GridReport report(std::make_unique<JsonlSink>(stream), "test", 2);
    report.Run(sweep);
  }
  std::istringstream lines(stream.str());
  std::string line;
  std::vector<ResultRow> rows;
  while (std::getline(lines, line)) {
    ResultRow row;
    std::string error;
    ASSERT_TRUE(ParseJsonlLine(line, &row, &error)) << error;
    rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].variant, "sweep=a");
  EXPECT_EQ(rows[0].improvement_pct, 0.0);
  EXPECT_EQ(rows[1].variant, "sweep=a");
  EXPECT_NE(rows[1].improvement_pct, 0.0);
}

ResultRow Row(const std::string& machine, const std::string& workload,
              const std::string& policy, double improvement, double lar = 50.0,
              const std::string& variant = "") {
  ResultRow row;
  row.bench = "fig";
  row.machine = machine;
  row.workload = workload;
  row.policy = policy;
  row.variant = variant;
  row.improvement_pct = improvement;
  row.lar_pct = lar;
  return row;
}

TEST(AggregateTest, MeansMinMaxOverSeeds) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "THP", -40.0),
                                       Row("machineB", "CG.D", "THP", -46.0),
                                       Row("machineB", "CG.D", "Linux-4K", 0.0)};
  const std::vector<AggregateRow> aggregates = Aggregate(rows);
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_EQ(aggregates[0].policy, "THP");  // first appearance order
  EXPECT_EQ(aggregates[0].runs, 2);
  EXPECT_EQ(aggregates[0].mean_improvement_pct, (-40.0 + -46.0) * (1.0 / 2));
  EXPECT_EQ(aggregates[0].min_improvement_pct, -46.0);
  EXPECT_EQ(aggregates[0].max_improvement_pct, -40.0);
}

// The seed mean accumulates in row order, then multiplies by the reciprocal
// of the run count once. With these values that is not bitwise `sum / 3`,
// so the assertions pin the exact arithmetic.
TEST(AggregateTest, MeanAccumulatesThenMultipliesByTheReciprocal) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "THP", 1.0, 0.1),
                                       Row("machineB", "CG.D", "THP", 2.0, 0.2),
                                       Row("machineB", "CG.D", "THP", 4.0, 0.4)};
  const std::vector<AggregateRow> aggregates = Aggregate(rows);
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_EQ(aggregates[0].runs, 3);
  const double inv = 1.0 / 3;
  EXPECT_EQ(aggregates[0].mean_improvement_pct, (1.0 + 2.0 + 4.0) * inv);
  EXPECT_EQ(aggregates[0].lar_pct, (0.1 + 0.2 + 0.4) * inv);
  EXPECT_NE((1.0 + 2.0 + 4.0) * inv, (1.0 + 2.0 + 4.0) / 3);
}

TEST(AggregateTest, VariantsAreSeparateColumns) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "THP", -40.0, 50.0, "x=1"),
                                       Row("machineB", "CG.D", "THP", -46.0, 50.0, "x=2")};
  EXPECT_EQ(Aggregate(rows).size(), 2u);
}

TEST(ChecksTest, PassOnPaperShapedRows) {
  std::vector<ResultRow> rows = {
      Row("machineB", "CG.D", "Linux-4K", 0.0, 40.0),
      Row("machineB", "CG.D", "THP", -43.0, 36.0),
      Row("machineB", "CG.D", "Carrefour-2M", -38.0, 38.0),
      Row("machineB", "CG.D", "Carrefour-LP", 2.0, 39.0),
      Row("machineB", "WC", "THP", 109.0),
      Row("machineA", "wrmem", "THP", 51.0),
      Row("machineB", "wrmem", "THP", 80.0),
      Row("machineA", "SSCA.20", "THP", -17.0),
      Row("machineA", "SSCA.20", "Carrefour-2M", 13.0),
      Row("machineA", "UA.B", "Linux-4K", 0.0, 90.0),
      Row("machineA", "UA.B", "THP", -25.0, 61.0),
  };
  const auto results = EvaluatePaperChecks(rows);
  EXPECT_TRUE(AllPassed(results));
  int passed = 0;
  for (const auto& result : results) {
    passed += result.status == CheckStatus::kPass ? 1 : 0;
  }
  EXPECT_EQ(passed, 9);  // every check has its columns
}

// The named check's result over `rows`.
CheckResult Result(const std::vector<ResultRow>& rows, const std::string& id) {
  for (const CheckResult& result : EvaluatePaperChecks(rows)) {
    if (result.name == id) {
      return result;
    }
  }
  ADD_FAILURE() << "no check " << id;
  return {};
}

void ExpectResult(const CheckResult& result, CheckStatus status, const std::string& detail) {
  EXPECT_EQ(result.status, status) << result.name << ": " << result.detail;
  EXPECT_EQ(result.detail, detail) << result.name;
}

// The sign of one column (kCompare against 0), on one machine or pooled
// over several.
TEST(ChecksTest, SignShape) {
  const char* cg = "thp-hurts-hot-page-cg-on-machineB";
  ExpectResult(Result({Row("machineB", "CG.D", "THP", -43.0)}, cg), CheckStatus::kPass,
               "THP improvement -43.0% (expected < 0)");
  // THP *helping* the hot-page workload CG.D on machine B contradicts
  // Figure 1.
  ExpectResult(Result({Row("machineB", "CG.D", "THP", 20.0)}, cg), CheckStatus::kFail,
               "THP improvement 20.0% (expected < 0)");
  ExpectResult(Result({Row("machineA", "CG.D", "THP", -43.0)}, cg), CheckStatus::kSkip,
               "no (machineB, CG.D, THP) rows");
  const char* wrmem = "thp-helps-allocation-wrmem";
  ExpectResult(Result({Row("machineA", "wrmem", "THP", 51.0)}, wrmem), CheckStatus::kPass,
               "machineA: 51.0%");
  ExpectResult(
      Result({Row("machineA", "wrmem", "THP", 51.0), Row("machineB", "wrmem", "THP", -3.0)},
             wrmem),
      CheckStatus::kFail, "machineA: 51.0%; machineB: -3.0%");
  ExpectResult(Result({}, wrmem), CheckStatus::kSkip, "no (wrmem, THP) rows");
}

// Column x against column y: strict, with a floor, on the LAR field, and
// with a rider.
TEST(ChecksTest, VersusShape) {
  const char* recovers = "carrefour-lp-recovers-cg-on-machineB";
  ExpectResult(Result({Row("machineB", "CG.D", "Carrefour-LP", 2.0),
                       Row("machineB", "CG.D", "THP", -43.0)},
                      recovers),
               CheckStatus::kPass, "Carrefour-LP 2.0% vs THP -43.0%");
  ExpectResult(Result({Row("machineB", "CG.D", "Carrefour-LP", -43.0),
                       Row("machineB", "CG.D", "THP", -43.0)},
                      recovers),
               CheckStatus::kFail, "Carrefour-LP -43.0% vs THP -43.0%");
  ExpectResult(Result({Row("machineB", "CG.D", "Carrefour-LP", 2.0)}, recovers),
               CheckStatus::kSkip, "need (machineB, CG.D) under both Carrefour-LP and THP");

  // The floor is inclusive.
  const char* snc16 = "split-then-place-holds-at-16-nodes";
  ExpectResult(Result({Row("snc16", "CG.D", "Carrefour-LP", 6.0),
                       Row("snc16", "CG.D", "Carrefour-2M", -4.0)},
                      snc16),
               CheckStatus::kPass, "Carrefour-LP 6.0% vs Carrefour-2M -4.0% (floor: +10 points)");
  ExpectResult(Result({Row("snc16", "CG.D", "Carrefour-LP", 5.0),
                       Row("snc16", "CG.D", "Carrefour-2M", -4.0)},
                      snc16),
               CheckStatus::kFail, "Carrefour-LP 5.0% vs Carrefour-2M -4.0% (floor: +10 points)");
  ExpectResult(Result({}, snc16), CheckStatus::kSkip,
               "need (snc16, CG.D) under both Carrefour-LP and Carrefour-2M (run datacenter)");

  const char* ua = "thp-degrades-ua-lar-on-machineA";
  ExpectResult(Result({Row("machineA", "UA.B", "THP", -25.0, 61.0),
                       Row("machineA", "UA.B", "Linux-4K", 0.0, 90.0)},
                      ua),
               CheckStatus::kPass, "LAR 61.0% under THP vs 90.0% under Linux-4K");
  ExpectResult(Result({Row("machineA", "UA.B", "THP", -25.0, 90.0),
                       Row("machineA", "UA.B", "Linux-4K", 0.0, 90.0)},
                      ua),
               CheckStatus::kFail, "LAR 90.0% under THP vs 90.0% under Linux-4K");

  // The mmap-churn rider: the gap alone is not enough without organic
  // allocation failures under always-2M.
  const char* churn = "thp-degrades-under-mmap-churn";
  std::vector<ResultRow> rows = {Row("machineA", "trace:ckpt-churn", "Carrefour-LP", 1.0),
                                 Row("machineA", "trace:ckpt-churn", "THP", -50.0)};
  ExpectResult(Result(rows, churn), CheckStatus::kFail,
               "Carrefour-LP 1.0% vs always-2M -50.0% (floor: +10 points); 0 organic alloc "
               "failures under always-2M (need > 0)");
  rows[1].buddy_alloc_failures = 3;
  ExpectResult(Result(rows, churn), CheckStatus::kPass,
               "Carrefour-LP 1.0% vs always-2M -50.0% (floor: +10 points); 3 organic alloc "
               "failures under always-2M (need > 0)");
}

// Carrefour-LP more than the tolerance band below Carrefour-2M on an
// affected workload contradicts the paper's "never loses more than a few
// percent" (Figure 3).
TEST(ChecksTest, BandShape) {
  const char* band = "carrefour-lp-geq-carrefour";
  const std::string pass =
      "Carrefour-LP within tolerance of Carrefour-2M on every measured affected column";
  ExpectResult(Result({Row("machineA", "LU.B", "Carrefour-2M", -5.0),
                       Row("machineA", "LU.B", "Carrefour-LP", -40.0)},
                      band),
               CheckStatus::kFail, "machineA/LU.B: LP -40.0% vs C2M -5.0%");
  ExpectResult(Result({Row("machineA", "LU.B", "Carrefour-2M", -5.0),
                       Row("machineA", "LU.B", "Carrefour-LP", -8.0)},
                      band),
               CheckStatus::kPass, pass);
  ExpectResult(Result({Row("machineA", "LU.B", "Carrefour-2M", -5.0)}, band), CheckStatus::kSkip,
               "need Carrefour-LP and Carrefour-2M columns on the affected set (run fig2 + fig3)");
  // UA holds the same 6-point band as every other affected column (the old
  // 45-point mass-relocation carve-out is gone)...
  ExpectResult(Result({Row("machineB", "UA.B", "Carrefour-2M", -5.0, 25.0),
                       Row("machineB", "UA.B", "Carrefour-LP", -40.0, 70.0),
                       Row("machineA", "LU.B", "Carrefour-2M", -5.0),
                       Row("machineA", "LU.B", "Carrefour-LP", -50.0)},
                      band),
               CheckStatus::kFail,
               "machineA/LU.B: LP -50.0% vs C2M -5.0%; machineB/UA.B: LP -40.0% vs C2M -5.0%");
  // ...and additionally must show the false-sharing recovery: inside the
  // band but with LAR below plain Carrefour's still fails.
  ExpectResult(Result({Row("machineB", "UA.B", "Carrefour-2M", -5.0, 25.0),
                       Row("machineB", "UA.B", "Carrefour-LP", -8.0, 12.0)},
                      band),
               CheckStatus::kFail,
               "machineB/UA.B: LP -8.0% vs C2M -5.0% (UA requires LAR recovery: LP 12.0% vs "
               "C2M 25.0%)");
  ExpectResult(Result({Row("machineB", "UA.B", "Carrefour-2M", -5.0, 25.0),
                       Row("machineB", "UA.B", "Carrefour-LP", -8.0, 70.0)},
                      band),
               CheckStatus::kPass, pass);
  // The datacenter band carries no UA rider.
  ExpectResult(Result({Row("epyc8", "UA.B", "Carrefour-2M", -5.0, 25.0),
                       Row("epyc8", "UA.B", "Carrefour-LP", -8.0, 12.0)},
                      "carrefour-lp-geq-carrefour-at-datacenter"),
               CheckStatus::kPass,
               "Carrefour-LP within tolerance of Carrefour-2M on every measured datacenter "
               "column");
}

// The frag sweep's named check reads the faults=off/faults=frag columns.
TEST(ChecksTest, GracefulUnderFragReadsTheFaultColumns) {
  const auto rows = [](double lp_frag, double c2m_frag) {
    return std::vector<ResultRow>{
        Row("machineA", "SSCA.20", "Carrefour-LP", 20.0, 50.0, "faults=off"),
        Row("machineA", "SSCA.20", "Carrefour-LP", lp_frag, 50.0, "faults=frag"),
        Row("machineA", "SSCA.20", "Carrefour-2M", 15.0, 50.0, "faults=off"),
        Row("machineA", "SSCA.20", "Carrefour-2M", c2m_frag, 50.0, "faults=frag")};
  };
  const char* id = "carrefour-lp-graceful-under-frag";
  ExpectResult(Result(rows(10.0, -30.0), id), CheckStatus::kPass,
               "frag costs Carrefour-LP 10.0 points vs Carrefour-2M 45.0 (LP bound: 35.0)");
  ExpectResult(Result(rows(-20.0, -30.0), id), CheckStatus::kFail,
               "frag costs Carrefour-LP 40.0 points vs Carrefour-2M 45.0 (LP bound: 35.0)");
  ExpectResult(Result({Row("machineA", "SSCA.20", "Carrefour-LP", 20.0)}, id),
               CheckStatus::kSkip,
               "need (machineA, SSCA.20) under Carrefour-LP and Carrefour-2M at faults=off and "
               "faults=frag (run fault_grace)");
}

TEST(ChecksTest, SummaryRoundTripEvaluatesIdentically) {
  // A written bench_summary.json parses back into groups whose pooled
  // checks agree with the row-level evaluation — the contract behind
  // `numalp_report --from-summary BENCH_fig2_fig3.json --check`.
  const std::vector<ResultRow> rows = {
      Row("machineB", "CG.D", "Linux-4K", 0.0, 40.0),
      Row("machineB", "CG.D", "THP", -43.0, 36.0),
      Row("machineB", "CG.D", "Carrefour-2M", -38.0, 38.0),
      Row("machineB", "CG.D", "Carrefour-LP", 2.0, 39.0),
      Row("machineA", "UA.B", "Linux-4K", 0.0, 90.0),
      Row("machineA", "UA.B", "THP", -25.0, 61.0),
      Row("machineA", "UA.B", "Carrefour-2M", -15.0, 34.0),
      Row("machineA", "UA.B", "Carrefour-LP", -18.0, 85.0),
      Row("machineA", "LU.B", "Carrefour-2M", -5.0, 80.0, "sweep"),  // variant: ignored
  };
  const std::vector<AggregateRow> aggregates = Aggregate(rows);
  std::ostringstream out;
  WriteSummaryJson(out, aggregates);

  std::vector<AggregateRow> parsed;
  std::string error;
  ASSERT_TRUE(ParseSummaryJson(out.str(), &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), aggregates.size());
  EXPECT_EQ(parsed[0].machine, aggregates[0].machine);
  EXPECT_EQ(parsed[0].runs, aggregates[0].runs);
  EXPECT_DOUBLE_EQ(parsed[0].mean_improvement_pct, aggregates[0].mean_improvement_pct);
  EXPECT_DOUBLE_EQ(parsed[0].lar_pct, aggregates[0].lar_pct);

  const auto from_rows = EvaluatePaperChecks(rows);
  const auto from_summary = EvaluatePaperChecks(parsed);
  ASSERT_EQ(from_rows.size(), from_summary.size());
  for (std::size_t i = 0; i < from_rows.size(); ++i) {
    EXPECT_EQ(from_rows[i].name, from_summary[i].name);
    EXPECT_EQ(static_cast<int>(from_rows[i].status),
              static_cast<int>(from_summary[i].status))
        << from_rows[i].name;
    EXPECT_EQ(from_rows[i].detail, from_summary[i].detail) << from_rows[i].name;
  }
  EXPECT_TRUE(AllPassed(from_summary));

  std::vector<AggregateRow> rejected;
  EXPECT_FALSE(ParseSummaryJson("{\"schema\":\"something-else\"}", &rejected, &error));
}

TEST(ChecksTest, SkipWithoutRequiredColumnsAndIgnoreVariants) {
  // Variant-tagged rows model non-default setups and must not trip checks.
  const std::vector<ResultRow> rows = {
      Row("machineB", "CG.D", "Linux-4K", 0.0, 50.0, "mem8"),
      Row("machineB", "CG.D", "THP", +20.0, 50.0, "mem8")};
  const auto results = EvaluatePaperChecks(rows);
  EXPECT_TRUE(AllPassed(results));
  for (const auto& result : results) {
    EXPECT_EQ(result.status, CheckStatus::kSkip) << result.name;
  }
}

TEST(ChecksTest, BaselineMustBeZero) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "Linux-4K", 1.0)};
  const auto results = EvaluatePaperChecks(rows);
  EXPECT_FALSE(AllPassed(results));
}

// Linux-4K rows of +1 and -1 average to 0; the summary still carries them
// in min/max, so the check fails from the summary as it does from the rows.
TEST(ChecksTest, BaselineMustBeZeroThroughTheSummary) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "Linux-4K", 1.0),
                                       Row("machineB", "CG.D", "Linux-4K", -1.0)};
  std::ostringstream summary;
  WriteSummaryJson(summary, Aggregate(rows));
  std::vector<AggregateRow> parsed;
  std::string error;
  ASSERT_TRUE(ParseSummaryJson(summary.str(), &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].mean_improvement_pct, 0.0);
  for (const auto& results : {EvaluatePaperChecks(rows), EvaluatePaperChecks(parsed)}) {
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results[0].name, "baseline-improvement-zero");
    EXPECT_EQ(results[0].status, CheckStatus::kFail);
  }
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string CommittedSummary(const char* name) {
  return ReadFile(std::filesystem::path(NUMALP_SOURCE_DIR) / name);
}

// Every committed baseline parses and writes back byte for byte: the one
// column table covers every summary key in both directions.
TEST(SummaryJsonTest, CommittedBaselinesRoundTripByteForByte) {
  for (const char* name : {"BENCH_fig2_fig3.json", "BENCH_faults.json",
                           "BENCH_datacenter.json", "BENCH_trace.json"}) {
    const std::string contents = CommittedSummary(name);
    ASSERT_FALSE(contents.empty()) << name;
    std::vector<AggregateRow> parsed;
    std::string error;
    ASSERT_TRUE(ParseSummaryJson(contents, &parsed, &error)) << name << ": " << error;
    std::ostringstream written;
    WriteSummaryJson(written, parsed);
    EXPECT_EQ(written.str(), contents) << name;
  }
}

// Runs `numalp_report --from-summary` on `contents` written to a scratch
// file; `expected` is the stderr regex after "<file>: ".
void ExpectSummaryRejected(const std::string& contents, const std::string& expected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Named by the test, not the pid: the threadsafe death test re-runs the
  // test body in a fresh process.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::string("numalp_report_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json"))
          .string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }
  const auto run = [&path] {
    std::vector<std::string> args = {NUMALP_REPORT, "--from-summary", path, "--check",
                                     "--format", "csv"};
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  };
  EXPECT_EXIT(run(), ::testing::ExitedWithCode(2), path + ": " + expected);
  std::filesystem::remove(path);
}

// A malformed value used to read as 0 (and trip an unrelated check).
TEST(SummaryJsonDeathTest, MalformedValueIsRejected) {
  const std::string corrupted =
      std::regex_replace(CommittedSummary("BENCH_fig2_fig3.json"),
                         std::regex("\"lar_pct\":[^,]*"), "\"lar_pct\":abc");
  ExpectSummaryRejected(corrupted, "line 4: bad value for \"lar_pct\": abc");
}

// A non-positive run count used to drop the group, so every check skipped.
TEST(SummaryJsonDeathTest, NonPositiveRunsIsRejected) {
  const std::string corrupted = std::regex_replace(
      CommittedSummary("BENCH_fig2_fig3.json"), std::regex("\"runs\":3"), "\"runs\":-3");
  ExpectSummaryRejected(corrupted, "line 4: bad value for \"runs\": -3");
}

// A missing key used to keep its default, so every check skipped.
TEST(SummaryJsonDeathTest, MissingKeyIsRejected) {
  const std::string corrupted =
      std::regex_replace(CommittedSummary("BENCH_fig2_fig3.json"),
                         std::regex("\"machine\":\"[^\"]*\","), "");
  ExpectSummaryRejected(corrupted, "line 4: missing \"machine\"");
}

// A failed cell's row carries no measurement. numalp_report once averaged
// such stubs into the summary (LAR 100%, improvement 0) as if they were
// results; now one exits 2 naming its file and line, before anything is
// written.
TEST(LoadJsonlDeathTest, FailedRowIsRefusedBeforeTheSummary) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "numalp_report_test_failed_row";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "run.jsonl");
    out << R"({"bench":"run","machine":"machineA","workload":"CG.D","policy":"thp",)"
        << R"("status":"ok","lar_pct":60})" << "\n";
    out << R"({"bench":"run","machine":"machineA","workload":"CG.D","policy":"thp",)"
        << R"("status":"failed: trace: truncated chunk","lar_pct":100})" << "\n";
  }
  const std::string summary = (dir / "summary.json").string();
  const auto run = [&] {
    if (std::freopen("/dev/null", "w", stdout) == nullptr) {
      std::_Exit(127);
    }
    std::vector<std::string> args = {NUMALP_REPORT, dir.string(), "--summary", summary};
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  };
  EXPECT_EXIT(run(), ::testing::ExitedWithCode(2),
              "numalp_report: [^\n]*/run.jsonl:2: status failed: trace: truncated chunk\n");
  EXPECT_FALSE(fs::exists(summary));
  fs::remove_all(dir);
}

// Without --resume, --out-dir replaces the bench's own files instead of
// appending to them, and leaves other benches' files in the directory alone.
TEST(GridReportTest, OutDirWithoutResumeTruncates) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("numalp_report_test_outdir_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream other(dir / "other.jsonl");
    other << "{\"bench\":\"other\"}\n";
  }
  Options options;
  options.format = "csv";
  options.out_dir = dir.string();
  options.jobs = 2;
  options.sim = TinySim();
  const ToolInfo info = {"report_test", "outdir", "truncate test"};
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kThp};
  grid.num_seeds = 1;
  grid.sim = TinySim();
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    {
      GridReport report(options, info);
      report.Run(Sweep().AddGrid(grid));
    }
    std::vector<std::string> files;
    for (const char* file : {"outdir.csv", "outdir.jsonl", "outdir.manifest.json"}) {
      files.push_back(ReadFile(dir / file));
    }
    if (run == 0) {
      first = files;
    } else {
      EXPECT_EQ(files, first);
    }
  }
  EXPECT_NE(first[2].find("\"cells_done\":2,"), std::string::npos) << first[2];
  // A re-run that ends before its first row leaves no manifest still
  // claiming the old rows.
  { GridReport report(options, info); }
  EXPECT_FALSE(fs::exists(dir / "outdir.manifest.json"));
  EXPECT_EQ(ReadFile(dir / "outdir.jsonl"), "");
  EXPECT_EQ(ReadFile(dir / "other.jsonl"), "{\"bench\":\"other\"}\n");
  fs::remove_all(dir);
}

TEST(LoadJsonlTest, SkipsMalformedLinesWithIssues) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "numalp_report_test.jsonl").string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"bench":"fig1","epochs":3})" << "\n";
    out << "not json\n";
    out << "\n";
    out << R"({"bench":"fig2","epochs":4})" << "\n";
  }
  std::vector<ParseIssue> issues;
  const std::vector<ResultRow> rows = LoadJsonlFile(path, &issues);
  std::filesystem::remove(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].bench, "fig1");
  EXPECT_EQ(rows[1].epochs, 4);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].line, 2);
  EXPECT_TRUE(issues[0].refused);
}

}  // namespace
}  // namespace numalp::report
