// The repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--smoke]
//
// --trace 0 measures the end-to-end metrics: the workload runs back to back
// for S seconds, with a set-up sample before the first repetition and after
// each, and medians are reported. Every repetition's rows must be
// byte-identical to the first's; one baseline cell is re-run serially and its
// row compared as well.
//
// --trace 1 is the separate traced run: one untraced repetition, then every
// cell serially through Simulation::Run (timed per cell, its row compared
// byte for byte with the untraced row — the jobs x shards identity contract)
// and the outside-in layer replay of layer_replay.h. It prints the per-layer
// metrics.
//
// The last line of standard output is one JSON object: correct, attempted
// and failed (cells), and the metrics with their units. Everything above it
// is for people.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/layer_replay.h"
#include "perfbench/workloads.h"
#include "src/core/simulation.h"
#include "src/report/checks.h"
#include "src/report/result_row.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string work_dir = ".";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload {paper-grid|sharded-cell|trace-churn} --seed N\n"
               "                 --seconds S --trace {0|1} [--work-dir DIR] [--smoke]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("bad --seed " + value);
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 3600.0) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("bad --trace " + value);
      }
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return args;
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool applies = true;
};

std::string JsonNumber(double value) {
  return numalp::report::CanonicalDouble(std::isfinite(value) ? value : 0.0);
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string not_applicable;
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16s %s%s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str(), m.applies ? "" : "  (n/a on this workload: reported as 0)");
    if (!m.applies) {
      not_applicable += (not_applicable.empty() ? "" : ",") + m.name;
    }
  }
  if (!not_applicable.empty()) {
    std::printf("not applicable: %s\n", not_applicable.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.applies ? m.value : 0.0) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintProvenance(const Args& args, const Plan& plan) {
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", \"numalp_native\": %s, "
      "\"jobs\": %d, \"cells\": %zu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
      args.smoke ? "true" : "false", std::thread::hardware_concurrency(),
      CompilerName().c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE ? "true" : "false",
      plan.jobs, plan.cells.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Simulated outcome --------------------------------------------------------

// The simulated (deterministic) end-to-end figures of one set of rows. The
// model has no numeric reference; the paper's qualitative checks are its only
// accuracy figure.
struct SimOutcome {
  double lp_speedup = 0.0;     // mean over Carrefour-LP cells of baseline / LP cycles
  double lp_lar_pct = 0.0;     // mean Carrefour-LP local access ratio
  int checks_passed = 0;
  int checks_failed = 0;
  int checks_skipped = 0;

  double ChecksPassedPct() const {
    return 100.0 * Ratio(checks_passed, checks_passed + checks_failed);
  }
};

SimOutcome EvaluateRows(const std::vector<numalp::report::ResultRow>& rows) {
  SimOutcome out;
  int lp_cells = 0;
  for (const numalp::report::ResultRow& row : rows) {
    if (row.policy == numalp::NameOf(numalp::PolicyKind::kCarrefourLp)) {
      // ImprovementPct is 100 * (baseline / run - 1).
      out.lp_speedup += 1.0 + row.improvement_pct / 100.0;
      out.lp_lar_pct += row.lar_pct;
      ++lp_cells;
    }
  }
  out.lp_speedup = Ratio(out.lp_speedup, lp_cells);
  out.lp_lar_pct = Ratio(out.lp_lar_pct, lp_cells);
  const std::vector<numalp::report::CheckResult> checks = numalp::report::EvaluatePaperChecks(rows);
  for (const numalp::report::CheckResult& check : checks) {
    switch (check.status) {
      case numalp::report::CheckStatus::kPass:
        ++out.checks_passed;
        break;
      case numalp::report::CheckStatus::kFail:
        ++out.checks_failed;
        std::printf("paper check FAILED: %s: %s\n", check.name.c_str(), check.detail.c_str());
        break;
      case numalp::report::CheckStatus::kSkip:
        ++out.checks_skipped;
        break;
    }
  }
  std::printf("paper checks: %d passed, %d failed, %d skipped (not covered by this workload)\n",
              out.checks_passed, out.checks_failed, out.checks_skipped);
  return out;
}

std::vector<numalp::report::ResultRow> MakeRows(const Plan& plan, const Outcome& outcome) {
  std::vector<numalp::report::ResultRow> rows;
  rows.reserve(plan.cells.size());
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    rows.push_back(MakeRow(plan, outcome.cells, i));
  }
  return rows;
}

std::uint64_t TotalAccesses(const Outcome& outcome) {
  std::uint64_t accesses = 0;
  for (const numalp::RunResult* result : outcome.cells) {
    accesses += result->totals.accesses;
  }
  return accesses;
}

// --- --trace 0 ----------------------------------------------------------------

int RunEndToEnd(const Args& args) {
  // Set-up: everything before the first cell starts (trace synthesis, the
  // cell list), measured so that work moved into set-up shows. Sampled
  // before the first repetition and after every repetition, so the samples
  // span the run the way the wall-time samples do. Each sample is the mean
  // over as many back-to-back set-ups as fill 50 ms, since a single
  // microsecond-scale set-up is too short to time steadily, and each
  // sampling point takes samples for 150 ms (at least one), so the first,
  // cold one after a repetition does not set the median. Re-planning
  // rewrites identical trace files, so the plan in use stays valid.
  std::vector<double> setup_times;
  std::optional<Plan> plan;
  const auto sample_setup = [&] {
    const Clock::time_point point_start = Clock::now();
    do {
      const Clock::time_point start = Clock::now();
      int count = 0;
      do {
        plan = MakePlan(args.workload, args.seed, args.smoke, args.work_dir);
        ++count;
      } while (SecondsSince(start) < 0.05);
      setup_times.push_back(SecondsSince(start) / count);
    } while (SecondsSince(point_start) < 0.15);
  };
  sample_setup();
  PrintProvenance(args, *plan);

  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<std::string> first_lines;
  std::vector<numalp::report::ResultRow> first_rows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    const Clock::time_point start = Clock::now();
    const Outcome outcome = RunPlan(*plan);
    std::vector<numalp::report::ResultRow> rows = MakeRows(*plan, outcome);
    std::vector<std::string> lines;
    lines.reserve(rows.size());
    for (const numalp::report::ResultRow& row : rows) {
      lines.push_back(RowJsonl(row));
    }
    const double wall = SecondsSince(start);
    walls.push_back(wall);
    rates.push_back(Ratio(static_cast<double>(TotalAccesses(outcome)), wall));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ++attempted;
      bool ok = rows[i].status == "ok";
      if (!first_lines.empty() && lines[i] != first_lines[i]) {
        ok = false;
        std::printf("cell %zu: repetition %zu differs from repetition 0 at field '%s'\n", i,
                    walls.size() - 1, FirstDifferingField(rows[i], first_rows[i]).c_str());
      }
      if (!ok) {
        ++failed;
      }
    }
    if (first_lines.empty()) {
      first_lines = std::move(lines);
      first_rows = std::move(rows);
    }
    sample_setup();
  } while (Clock::now() < deadline);

  // One Linux-4K baseline (chosen by seed) re-run serially: its row must be
  // byte-identical to the parallel / sharded one.
  std::vector<std::size_t> baselines;
  for (std::size_t i = 0; i < plan->cells.size(); ++i) {
    if (plan->cells[i].baseline < 0) {
      baselines.push_back(i);
    }
  }
  const std::size_t check = baselines[args.seed % baselines.size()];
  {
    numalp::Simulation simulation(plan->cells[check].spec.topo, plan->cells[check].spec.workload,
                                  plan->cells[check].spec.policy,
                                  SerialSpec(plan->cells[check].spec).sim);
    const numalp::RunResult serial = simulation.Run();
    std::vector<const numalp::RunResult*> results(plan->cells.size(), nullptr);
    results[check] = &serial;
    const numalp::report::ResultRow row = MakeRow(*plan, results, check);
    ++attempted;
    if (RowJsonl(row) != first_lines[check]) {
      ++failed;
      std::printf("cell %zu: serial row differs from the parallel row at field '%s'\n", check,
                  FirstDifferingField(row, first_rows[check]).c_str());
    }
  }

  const SimOutcome sim = EvaluateRows(first_rows);
  std::printf(
      "note: sim.* are simulated outcomes with no numeric reference; the paper's qualitative "
      "checks above (report.paper_checks_passed_pct in the traced run) are the model's only "
      "accuracy figure.\n");
  std::printf("repetitions: %zu, cells per repetition: %zu, wall s min/median/max: %.4f %.4f %.4f\n",
              walls.size(), plan->cells.size(), *std::min_element(walls.begin(), walls.end()),
              Median(walls), *std::max_element(walls.begin(), walls.end()));
  RemoveTraces(*plan);

  const double ok_pct = 100.0 * Ratio(static_cast<double>(attempted - failed),
                                      static_cast<double>(attempted));
  const std::vector<Metric> metrics = {
      {"wall_s", Median(walls), "s"},
      {"accesses_per_s", Median(rates), "1/s"},
      {"setup_s", Median(setup_times), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"cells_ok_pct", ok_pct, "%"},
      {"sim.lp_speedup", sim.lp_speedup, "x"},
      {"sim.lp_lar_pct", sim.lp_lar_pct, "%"},
  };
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

// --- --trace 1 ----------------------------------------------------------------

int RunTraced(const Args& args) {
  const Plan plan = MakePlan(args.workload, args.seed, args.smoke, args.work_dir);
  PrintProvenance(args, plan);
  const std::size_t n = plan.cells.size();

  // The untraced reference repetition.
  std::vector<numalp::report::ResultRow> untraced_rows;
  double untraced_wall = 0.0;
  {
    const Clock::time_point start = Clock::now();
    const Outcome outcome = RunPlan(plan);
    untraced_rows = MakeRows(plan, outcome);
    untraced_wall = SecondsSince(start);
  }

  // The traced pass: every cell serially, then its layer replay.
  const Clock::time_point traced_start = Clock::now();
  std::vector<std::optional<numalp::RunResult>> serial(n);
  std::vector<const numalp::RunResult*> results(n, nullptr);
  std::vector<double> cell_s(n, 0.0);
  std::vector<bool> is_baseline_of_later(n, false);
  for (const Cell& cell : plan.cells) {
    if (cell.baseline >= 0) {
      is_baseline_of_later[static_cast<std::size_t>(cell.baseline)] = true;
    }
  }
  numalp::CoreCounters totals;
  std::uint64_t migrations = 0, splits = 0, promotions = 0, alloc_failures = 0;
  double frag_index_pct = 0.0;
  double row_s = 0.0;
  std::uint64_t replay_trace_bytes = 0;
  std::uint64_t failed = 0;
  LayerTimes layers;
  for (std::size_t i = 0; i < n; ++i) {
    const Cell& cell = plan.cells[i];
    const numalp::RunSpec spec = SerialSpec(cell.spec);
    Clock::time_point start = Clock::now();
    {
      numalp::Simulation simulation(spec.topo, spec.workload, spec.policy, spec.sim);
      serial[i] = simulation.Run();
    }
    cell_s[i] = SecondsSince(start);
    const numalp::RunResult& result = *serial[i];
    results[i] = &result;
    std::printf("cell %zu %s/%s/%s: %.4f s\n", i, result.machine.c_str(), result.workload.c_str(),
                std::string(numalp::NameOf(result.policy)).c_str(), cell_s[i]);

    start = Clock::now();
    const numalp::report::ResultRow row = MakeRow(plan, results, i);
    const std::string line = RowJsonl(row);
    row_s += SecondsSince(start);
    if (row.status != "ok" || line != RowJsonl(untraced_rows[i])) {
      ++failed;
      std::printf("cell %zu (%s/%s/%s): serial row differs from the untraced row at field '%s'\n",
                  i, row.machine.c_str(), row.workload.c_str(), row.policy.c_str(),
                  FirstDifferingField(row, untraced_rows[i]).c_str());
    }

    totals.Accumulate(result.totals);
    migrations += result.total_migrations;
    splits += result.total_splits;
    promotions += result.total_promotions;
    alloc_failures += result.buddy_alloc_failures;
    frag_index_pct = std::max(frag_index_pct, result.frag_index_pct);

    ReplayCell(spec, result.epochs, &layers);
    if (!cell.spec.workload.trace_file.empty()) {
      std::error_code ec;
      replay_trace_bytes += std::filesystem::file_size(cell.spec.workload.trace_file, ec);
    }
    if (!is_baseline_of_later[i]) {
      results[i] = nullptr;
      serial[i].reset();
    }
  }
  const double traced_wall = SecondsSince(traced_start);
  RemoveTraces(plan);

  double run_s = 0.0;
  for (const double s : cell_s) {
    run_s += s;
  }
  const bool has_trace = !plan.trace_files.empty();
  const bool sharded = plan.cells.front().spec.sim.shards > 1;
  const double accesses = static_cast<double>(totals.accesses);
  const double faults =
      static_cast<double>(totals.faults_4k + totals.faults_2m + totals.faults_1g);
  const double vm_s = layers.fault_s + layers.migrate_s + layers.munmap_s;
  const double metrics_s = layers.push_s + layers.fold_s;
  const double frac_sum = Ratio(layers.AttributedSeconds(), run_s);
  double gen_s = 0.0;
  for (const double s : plan.trace_gen_s) {
    gen_s += s;
  }
  gen_s = Ratio(gen_s, static_cast<double>(plan.trace_gen_s.size()));

  std::printf("traced pass: %.3f s (untraced %.3f s), %zu cells, %llu failed\n", traced_wall,
              untraced_wall, n, static_cast<unsigned long long>(failed));
  const std::vector<Metric> metrics = {
      {"runner.cell_s_p50", Median(cell_s), "s"},
      {"runner.cell_s_max", *std::max_element(cell_s.begin(), cell_s.end()), "s"},
      {"runner.busy_frac", Ratio(run_s, plan.jobs * untraced_wall), "ratio", plan.jobs > 1},
      {"core.ns_per_access", 1e9 * Ratio(run_s, accesses), "ns"},
      {"core.shard_speedup", Ratio(run_s, untraced_wall), "x", sharded},
      {"core.unattributed_frac", 1.0 - frac_sum, "ratio"},
      {"workloads.fill_ns_per_access",
       1e9 * Ratio(layers.fill_s, static_cast<double>(layers.accesses)), "ns"},
      {"workloads.fill_frac", Ratio(layers.fill_s, run_s), "ratio"},
      {"trace.decode_ns_per_access",
       1e9 * Ratio(layers.decode_s, static_cast<double>(layers.accesses)), "ns", has_trace},
      {"trace.decode_frac", Ratio(layers.decode_s, run_s), "ratio", has_trace},
      {"trace.bytes_per_access",
       Ratio(static_cast<double>(replay_trace_bytes), static_cast<double>(layers.accesses)), "B",
       has_trace},
      {"trace.gen_s", gen_s, "s", has_trace},
      {"hw.frac", Ratio(layers.hw_s, run_s), "ratio"},
      {"hw.tlb_ns_per_lookup", 1e9 * Ratio(layers.hw_s, static_cast<double>(layers.lookups)),
       "ns"},
      {"hw.tlb_miss_pct", 100.0 * Ratio(static_cast<double>(totals.tlb_l1_miss), accesses), "%"},
      {"hw.walks_per_kaccess", 1e3 * Ratio(static_cast<double>(totals.tlb_walks), accesses),
       "1/kaccess"},
      {"hw.walk_l2_miss_pct",
       100.0 * Ratio(static_cast<double>(totals.walk_l2_miss),
                     static_cast<double>(totals.tlb_walks)),
       "%"},
      {"vm.frac", Ratio(vm_s, run_s), "ratio"},
      {"vm.fault_ns", 1e9 * Ratio(layers.fault_s, static_cast<double>(layers.setup_faults)), "ns"},
      {"vm.faults_per_kaccess", 1e3 * Ratio(faults, accesses), "1/kaccess"},
      {"vm.migrations", static_cast<double>(migrations), "count"},
      {"vm.splits", static_cast<double>(splits), "count"},
      {"vm.promotions", static_cast<double>(promotions), "count"},
      {"vm.munmap_ns_per_mb",
       1e9 * Ratio(layers.munmap_s, static_cast<double>(layers.munmap_bytes) / (1 << 20)), "ns/MB",
       layers.munmap_bytes > 0},
      {"mem.alloc_ns", 1e9 * Ratio(layers.alloc_s, static_cast<double>(layers.alloc_pairs)), "ns"},
      {"mem.alloc_failures", static_cast<double>(alloc_failures), "count"},
      {"mem.frag_index_pct", frag_index_pct, "%"},
      {"metrics.frac", Ratio(metrics_s, run_s), "ratio"},
      {"metrics.push_ns_per_sample",
       1e9 * Ratio(layers.push_s, static_cast<double>(layers.samples)), "ns"},
      {"metrics.fold_ms", 1e3 * Ratio(layers.fold_s, static_cast<double>(layers.folds)), "ms"},
      {"metrics.window_pages",
       Ratio(static_cast<double>(layers.fold_pages), static_cast<double>(layers.folds)), "count"},
      {"carrefour.frac", Ratio(layers.plan_s, run_s), "ratio"},
      {"carrefour.plan_ms", 1e3 * Ratio(layers.plan_s, static_cast<double>(layers.plans)), "ms"},
      {"carrefour.actions", static_cast<double>(layers.actions), "count"},
      {"report.row_us", 1e6 * Ratio(row_s, static_cast<double>(n)), "us"},
      {"report.paper_checks_passed_pct", EvaluateRows(untraced_rows).ChecksPassedPct(), "%"},
      {"tracing.overhead_s", traced_wall - untraced_wall, "s"},
  };
  PrintResult(failed == 0, n, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  try {
    return args.trace == 1 ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
