// numalp_run — command-line driver for single experiments.
//
//   numalp_run --workload CG.D --machine B --policy carrefour-lp
//              [--seed N] [--epochs N] [--ibs-interval N] [--per-epoch]
//              [--capture-trace FILE] [standard flags: --format --out-dir
//              --jobs --accesses]
//
// Emits the run and its same-seed Linux-4K baseline as ResultRows (both
// execute concurrently on the ExperimentRunner), and with --per-epoch also
// prints the full epoch trace including the reactive component's LAR
// estimates, then the measured cell's speculative-window outcomes (md mode
// only — csv/jsonl stdout stays machine-parseable). A failed cell is named
// on stderr after the rows, and the exit status is then 1.
//
// Trace capture/replay (DESIGN.md Section 14): --capture-trace records the
// measured cell's access stream; --workload trace:FILE replays a recording
// (the batch geometry comes from the trace header, and --machine must match
// the recorded machine). A replayed cell's ResultRow is byte-identical to
// the captured cell's.
#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/trace/trace_reader.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"

int main(int argc, char** argv) {
  const numalp::report::ToolInfo info = {"numalp_run", "run",
                                         "one experiment against its Linux-4K baseline"};
  numalp::BenchmarkId bench = numalp::BenchmarkId::kCG_D;
  numalp::Topology topo = numalp::Topology::MachineB();
  numalp::PolicyKind policy = numalp::PolicyKind::kCarrefourLp;
  std::uint64_t ibs_interval = 0;
  bool per_epoch = false;
  std::string trace_file;
  std::string capture_file;
  const std::vector<numalp::report::Setting> extras = {
      numalp::report::WorkloadFlag(&bench, &trace_file),
      numalp::report::MachineFlag(&topo),
      numalp::report::PolicyFlag(&policy),
      {"--ibs-interval", numalp::report::Int(&ibs_interval, 1, LLONG_MAX),
       "one IBS sample per N accesses per core"},
      {"--per-epoch", numalp::report::Presence(&per_epoch),
       "print the epoch trace and window outcomes (md mode only)"},
      {"--capture-trace", numalp::report::Text(&capture_file, "FILE"),
       "record the measured cell's access stream into FILE"},
  };
  numalp::report::Options options = numalp::report::ParseToolArgs(argc, argv, info, extras);
  if (ibs_interval > 0) {
    options.sim.ibs_interval = ibs_interval;
  }

  numalp::WorkloadSpec workload;
  if (!trace_file.empty()) {
    const numalp::trace::TraceHeader header = numalp::trace::ReadTraceHeader(trace_file);
    if (header.machine != topo.name()) {
      std::fprintf(stderr, "trace %s was recorded on %s; pass --machine %s\n",
                   trace_file.c_str(), header.machine.c_str(), header.machine.c_str());
      return 2;
    }
    // The trace dictates the batch geometry: replay must fill epochs exactly
    // as the recorded run did for the byte-identity contract to hold.
    options.sim.accesses_per_thread_per_epoch = header.accesses_per_thread_per_epoch;
    workload = numalp::MakeTraceWorkloadSpec(trace_file);
  } else {
    workload = numalp::MakeWorkloadSpec(bench, topo);
  }

  numalp::report::Sweep sweep;
  sweep.AddBaseline({topo, workload, {}, options.sim}, "");
  if (policy != numalp::PolicyKind::kLinux4K) {
    numalp::RunSpec cell = sweep.cells[0].spec;
    cell.policy = numalp::MakePolicyConfig(policy);
    sweep.AddCompared(cell, "", 0);
  }
  // Capture records the measured cell (the last one): the replayable
  // artifact of interest is the stream the policy under study saw.
  if (!capture_file.empty()) {
    sweep.cells.back().spec.workload.capture_file = capture_file;
  }

  numalp::report::GridReport report(options, info);
  const std::vector<numalp::RunResult> results = report.Run(sweep);
  const int status = report.Close();

  if (per_epoch && options.human()) {
    const numalp::RunResult& run = results.back();
    std::printf("\n%3s %6s %6s %6s %6s %5s %5s %6s %6s %6s %5s\n", "ep", "wall-M", "LAR%",
                "imbal", "fault%", "migr", "split", "estC", "estCF", "estSP", "thp");
    for (const auto& e : run.history) {
      std::printf("%3d %6.2f %6.1f %6.1f %6.2f %5llu %5llu %6.1f %6.1f %6.1f %5s\n", e.epoch,
                  static_cast<double>(e.wall) / 1e6, e.metrics.lar_pct,
                  e.metrics.imbalance_pct, 100.0 * e.metrics.max_fault_time_share,
                  static_cast<unsigned long long>(e.migrations),
                  static_cast<unsigned long long>(e.splits), e.est_current_lar,
                  e.est_carrefour_lar, e.est_split_lar, e.thp_alloc_enabled ? "on" : "off");
    }
    const numalp::SpeculationStats& spec = run.speculation;
    std::printf("\nwindows committed=%llu fault-aborted=%llu hint-aborted=%llu; "
                "serial rounds setup=%llu replay=%llu penalty=%llu\n",
                static_cast<unsigned long long>(spec.windows_committed),
                static_cast<unsigned long long>(spec.windows_fault_aborted),
                static_cast<unsigned long long>(spec.windows_hint_aborted),
                static_cast<unsigned long long>(spec.setup_rounds),
                static_cast<unsigned long long>(spec.replay_rounds),
                static_cast<unsigned long long>(spec.penalty_rounds));
  }
  return status;
}
