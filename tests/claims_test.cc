// The claims table (src/report/claims.h) against the two things that must
// agree with it: REPRODUCING.md's bench table, row for row in both
// directions, and the baseline contract of each row's sweep — checked by
// expanding the sweep, without simulating a cell.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runner.h"
#include "src/report/claims.h"

#ifndef NUMALP_SOURCE_DIR
#error "CMake must define NUMALP_SOURCE_DIR for claims_test"
#endif

namespace numalp::report {
namespace {

namespace fs = std::filesystem;

// REPRODUCING.md's bench table: bench name -> (section, claim), read from
// rows shaped "| `./build/numalp_bench NAME --out-dir results` | SECTION |
// CLAIM |". A row of the table in any other shape is an error.
std::map<std::string, std::pair<std::string, std::string>> DocRows() {
  std::ifstream in(fs::path(NUMALP_SOURCE_DIR) / "REPRODUCING.md");
  EXPECT_TRUE(in.is_open());
  const std::string prefix = "| `./build/numalp_bench ";
  const std::string command_end = " --out-dir results` | ";
  std::map<std::string, std::pair<std::string, std::string>> rows;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| command | reproduces |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table || line.rfind("|---", 0) == 0) {
      continue;
    }
    if (line.empty() || line[0] != '|') {
      break;
    }
    const std::size_t name_end = line.find(command_end);
    const std::size_t section_end = line.find(" | ", name_end + command_end.size());
    if (line.rfind(prefix, 0) != 0 || name_end == std::string::npos ||
        section_end == std::string::npos || line.size() < 2 ||
        line.compare(line.size() - 2, 2, " |") != 0) {
      ADD_FAILURE() << "malformed bench table row: " << line;
      continue;
    }
    const std::size_t section_begin = name_end + command_end.size();
    rows[line.substr(prefix.size(), name_end - prefix.size())] = {
        line.substr(section_begin, section_end - section_begin),
        line.substr(section_end + 3, line.size() - 2 - (section_end + 3))};
  }
  return rows;
}

TEST(ClaimsDocTest, ReproducingTableEqualsTheClaimRows) {
  const auto doc = DocRows();
  std::map<std::string, std::pair<std::string, std::string>> table;
  for (const Claim& claim : Claims()) {
    table[claim.info.name] = {claim.section, claim.claim};
  }
  EXPECT_EQ(table.size(), Claims().size()) << "duplicate bench names in the claims table";
  for (const auto& [name, row] : table) {
    const auto it = doc.find(name);
    if (it == doc.end()) {
      ADD_FAILURE() << "claims row " << name << " has no REPRODUCING.md bench table row";
      continue;
    }
    EXPECT_EQ(it->second.first, row.first) << name << ": section";
    EXPECT_EQ(it->second.second, row.second) << name << ": claim";
  }
  for (const auto& [name, row] : doc) {
    EXPECT_TRUE(table.count(name)) << "REPRODUCING.md row " << name << " is not a claims row";
  }
}

TEST(ClaimsDocTest, CheckIdsAreUnique) {
  std::map<std::string, int> ids;
  for (const Claim& claim : Claims()) {
    for (const Check& check : claim.checks) {
      EXPECT_EQ(ids[check.id]++, 0) << check.id;
    }
  }
  EXPECT_EQ(ids.size(), 14u);
}

// One expanded cell: the cell, its baseline's index (its own for a
// baseline), its seed index.
struct Expanded {
  RunSpec spec;
  int baseline;
  int seed_index;
};

// The cells a sweep streams, with the baseline each one's row is computed
// against: for grids, as GridReport keys them (the latest Linux-4K cell of
// the same machine, workload and seed); for cell lists, from the meta.
std::vector<Expanded> Expand(const Sweep& sweep) {
  std::vector<Expanded> out;
  if (!sweep.grids.empty()) {
    std::vector<RunSpec> cells;
    for (const ExperimentGrid& grid : sweep.grids) {
      GridResults unused;
      internal::ExpandGrid(grid, cells, unused);
    }
    std::map<std::string, int> baseline_of;
    std::map<std::string, int> seen;
    for (const RunSpec& spec : cells) {
      const int index = static_cast<int>(out.size());
      const std::string key =
          spec.topo.name() + "|" + spec.workload.name + "|" + std::to_string(spec.sim.seed);
      if (spec.policy.kind == PolicyKind::kLinux4K) {
        baseline_of[key] = index;
      }
      const auto it = baseline_of.find(key);
      const std::string column =
          spec.topo.name() + "|" + spec.workload.name + "|" + std::string(NameOf(spec.policy.kind));
      out.push_back({spec, it == baseline_of.end() ? -1 : it->second, seen[column]++});
    }
    return out;
  }
  EXPECT_EQ(sweep.cells.size(), sweep.meta.size());
  for (std::size_t i = 0; i < sweep.cells.size() && i < sweep.meta.size(); ++i) {
    const int baseline = sweep.meta[i].baseline;
    out.push_back({sweep.cells[i], baseline < 0 ? static_cast<int>(i) : baseline,
                   sweep.meta[i].seed_index});
  }
  return out;
}

class ClaimGridTest : public ::testing::TestWithParam<std::string> {};

// Every row expands to cells; every cell's baseline streams before it (or
// is the cell itself) and is a Linux-4K cell on the same machine and
// workload, at the same seed.
TEST_P(ClaimGridTest, BaselinesPrecedeTheirCells) {
  const Claim* claim = FindClaim(GetParam());
  ASSERT_NE(claim, nullptr);
  BenchInputs inputs;
  if (claim->settings != nullptr) {
    claim->settings(&inputs);  // the row's defaults...
  }
  // ...except trace_replay's traces, kept small and out of the shared dir.
  inputs.trace_dir = (fs::temp_directory_path() / "numalp_claims_test_traces").string();
  inputs.trace_epochs = 1;
  inputs.options.sim.accesses_per_thread_per_epoch = 64;
  const std::vector<Expanded> cells = Expand(claim->sweep(inputs));
  ASSERT_FALSE(cells.empty());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Expanded& cell = cells[i];
    ASSERT_GE(cell.baseline, 0) << "cell " << i << " has no baseline";
    ASSERT_LE(cell.baseline, static_cast<int>(i)) << "cell " << i;
    const Expanded& base = cells[static_cast<std::size_t>(cell.baseline)];
    EXPECT_EQ(base.spec.policy.kind, PolicyKind::kLinux4K) << "cell " << i;
    EXPECT_EQ(base.baseline, cell.baseline) << "cell " << i << "'s baseline is compared itself";
    EXPECT_EQ(base.spec.topo.name(), cell.spec.topo.name()) << "cell " << i;
    EXPECT_EQ(base.spec.workload.name, cell.spec.workload.name) << "cell " << i;
    EXPECT_EQ(base.seed_index, cell.seed_index) << "cell " << i;
    EXPECT_EQ(base.spec.sim.seed, cell.spec.sim.seed) << "cell " << i;
  }
  fs::remove_all(inputs.trace_dir);
}

std::vector<std::string> ClaimNames() {
  std::vector<std::string> names;
  for (const Claim& claim : Claims()) {
    names.push_back(claim.info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(EveryRow, ClaimGridTest, ::testing::ValuesIn(ClaimNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace numalp::report
