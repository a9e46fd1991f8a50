// Whole-engine golden: the per-epoch records and result rows of a fixed cell
// matrix, frozen in tests/golden/engine_identity.txt. The matrix is machines
// A, B and epyc8 x CG.D (the hot-page path) / UA.B (the false-sharing
// path) x Linux-4K / THP / Carrefour-2M / Carrefour-LP x faults off / frag,
// plus a ckpt-churn trace replay, each at 1024 accesses x 25 epochs. The file was generated before the seed engine's algorithms
// left src/ (both engines wrote it byte for byte), so it pins today's
// engine to the seed's results through every later refactor.
//
// On a mismatch the test names the first differing (cell, epoch, field) and
// writes the actual output under the test temp dir. A deliberate result
// change regenerates the file by copying that output over the golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/faults.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/topo/topology.h"
#include "src/trace/tracegen.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"
#include "tests/oracles/identity.h"

#ifndef NUMALP_SOURCE_DIR
#error "CMake must define NUMALP_SOURCE_DIR for engine_golden_test"
#endif

namespace numalp {
namespace {

struct GoldenCell {
  std::string name;
  RunSpec spec;
};

SimConfig GoldenSim() {
  SimConfig sim;
  sim.accesses_per_thread_per_epoch = 1024;
  sim.max_epochs = 25;
  return sim;
}

std::vector<GoldenCell> GoldenCells(const std::string& trace_path) {
  std::vector<GoldenCell> cells;
  for (const Topology& topo :
       {Topology::MachineA(), Topology::MachineB(), Topology::Epyc8()}) {
    for (const BenchmarkId bench : {BenchmarkId::kCG_D, BenchmarkId::kUA_B}) {
      for (const PolicyKind kind : {PolicyKind::kLinux4K, PolicyKind::kThp,
                                    PolicyKind::kCarrefour2M, PolicyKind::kCarrefourLp}) {
        for (const FaultProfile faults : {FaultProfile::kOff, FaultProfile::kFrag}) {
          GoldenCell cell;
          cell.spec.topo = topo;
          cell.spec.workload = MakeWorkloadSpec(bench, topo);
          cell.spec.workload.steady_accesses_per_thread = 16'000;
          cell.spec.policy = MakePolicyConfig(kind);
          cell.spec.sim = GoldenSim();
          cell.spec.sim.faults.profile = faults;
          cell.name = topo.name() + '/' + std::string(NameOf(bench)) + '/' +
                      std::string(NameOf(kind)) +
                      (faults == FaultProfile::kOff ? "/faults=off" : "/faults=frag");
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  GoldenCell churn;
  churn.spec.topo = Topology::MachineA();
  churn.spec.workload = MakeTraceWorkloadSpec(trace_path);
  churn.spec.policy = MakePolicyConfig(PolicyKind::kThp);
  churn.spec.sim = GoldenSim();
  churn.name = churn.spec.topo.name() + "/ckpt-churn/" +
               std::string(NameOf(PolicyKind::kThp)) + "/faults=off";
  cells.push_back(std::move(churn));
  return cells;
}

// One "cell|epoch=E|field=value|..." line per epoch, then one
// "cell|row|field=value|..." line with the cell's result row.
std::string RenderGolden() {
  const std::string trace_path =
      (std::filesystem::path(::testing::TempDir()) / "engine_golden_churn.bin").string();
  trace::TracegenOptions gen;
  gen.profile = "ckpt-churn";
  gen.topo = Topology::MachineA();
  gen.accesses_per_thread = 1024;
  gen.epochs = 25;
  trace::GenerateTrace(gen, trace_path);

  std::string out =
      "# Whole-engine golden (tests/engine_golden_test.cc): per-epoch records, then the "
      "result row, per cell.\n";
  for (const GoldenCell& cell : GoldenCells(trace_path)) {
    Simulation simulation(cell.spec.topo, cell.spec.workload, cell.spec.policy,
                          cell.spec.sim);
    const RunResult run = simulation.Run();
    for (std::size_t e = 0; e < run.history.size(); ++e) {
      out += cell.name + "|epoch=" + std::to_string(e);
      for (const auto& [name, value] : EpochFields(run.history[e])) {
        out += '|' + name + '=' + value;
      }
      out += '\n';
    }
    out += cell.name + "|row|" + SerializeRow(cell.spec, run) + '\n';
  }
  std::filesystem::remove(trace_path);
  return out;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, sep);) {
    parts.push_back(part);
  }
  return parts;
}

// "line N: cell C, epoch E|row, field F: want W, got G" for the first
// differing line (or the first missing/extra one).
std::string FirstGoldenDifference(const std::string& want, const std::string& got) {
  const std::vector<std::string> want_lines = Split(want, '\n');
  const std::vector<std::string> got_lines = Split(got, '\n');
  for (std::size_t i = 0; i < std::max(want_lines.size(), got_lines.size()); ++i) {
    const std::string line = "line " + std::to_string(i + 1) + ": ";
    if (i >= want_lines.size()) {
      return line + "extra line " + got_lines[i];
    }
    if (i >= got_lines.size()) {
      return line + "missing line " + want_lines[i];
    }
    if (want_lines[i] == got_lines[i]) {
      continue;
    }
    const std::vector<std::string> w = Split(want_lines[i], '|');
    const std::vector<std::string> g = Split(got_lines[i], '|');
    if (w.size() < 2 || g.size() < 2 || w[0] != g[0] || w[1] != g[1]) {
      return line + "want " + want_lines[i] + ", got " + got_lines[i];
    }
    for (std::size_t f = 2; f < std::min(w.size(), g.size()); ++f) {
      if (w[f] != g[f]) {
        const std::string field = w[f].substr(0, w[f].find('='));
        return line + "cell " + w[0] + ", " + w[1] + ", field " + field + ": want " + w[f] +
               ", got " + g[f];
      }
    }
    return line + "cell " + w[0] + ", " + w[1] + ": field count " + std::to_string(w.size()) +
           " != " + std::to_string(g.size());
  }
  return "";
}

TEST(EngineGoldenTest, MatchesFrozenEngineOutput) {
  const std::filesystem::path golden_path =
      std::filesystem::path(NUMALP_SOURCE_DIR) / "tests" / "golden" / "engine_identity.txt";
  std::ifstream golden_file(golden_path, std::ios::binary);
  EXPECT_TRUE(golden_file.good()) << "cannot read " << golden_path.string();
  std::ostringstream want;
  want << golden_file.rdbuf();

  const std::string got = RenderGolden();
  if (got == want.str()) {
    return;
  }
  const std::filesystem::path actual_path =
      std::filesystem::path(::testing::TempDir()) / "engine_identity.actual.txt";
  std::ofstream(actual_path, std::ios::binary) << got;
  FAIL() << FirstGoldenDifference(want.str(), got) << "\nactual output written to "
         << actual_path.string();
}

}  // namespace
}  // namespace numalp
