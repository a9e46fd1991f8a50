// The claims table (src/report/claims.h) against the two things that must
// agree with it: REPRODUCING.md's bench table, row for row in both
// directions, and the baseline contract of each row's sweep — checked on
// the sweep's declared cells, without simulating one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

class ClaimGridTest : public ::testing::TestWithParam<std::string> {};

// Every row declares cells; every cell's declared baseline streams before it
// (or is the cell itself) and is a Linux-4K cell on the same machine and
// workload, at the same seed and seed index.
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
  const std::vector<Sweep::Cell> cells = claim->sweep(inputs).cells;
  ASSERT_FALSE(cells.empty());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Sweep::Cell& cell = cells[i];
    ASSERT_GE(cell.baseline, 0) << "cell " << i << " has no baseline";
    ASSERT_LE(cell.baseline, static_cast<int>(i)) << "cell " << i;
    const Sweep::Cell& base = cells[static_cast<std::size_t>(cell.baseline)];
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
