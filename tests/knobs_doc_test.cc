// Drift gate for docs/KNOBS.md: every flag a binary accepts is documented
// there, and every flag documented there is still accepted.
//
// The flag set is read from the binaries themselves: every --help text is
// printed from the binary's settings rows (src/report/options.h), one
// "  --flag ..." line per row, so running each binary's --help yields its
// whole surface with no second list to keep in step. The binaries are
// numalp_run, numalp_bench (one ordinary bench plus trace_replay, the row
// with its own settings), numalp_report, numalp_tracegen and the examples.
// The document side is every `--flag` token in backticks in docs/KNOBS.md.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef NUMALP_SOURCE_DIR
#error "CMake must define NUMALP_SOURCE_DIR for knobs_doc_test"
#endif

namespace {

namespace fs = std::filesystem;

bool IsFlag(const std::string& text) {
  if (text.size() < 3 || text[0] != '-' || text[1] != '-') {
    return false;
  }
  for (std::size_t i = 2; i < text.size(); ++i) {
    const char c = text[i];
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-')) {
      return false;
    }
  }
  return true;
}

std::string Quote(const std::string& path) { return "'" + path + "'"; }

// The commands whose --help lists every settings row in the tree.
std::vector<std::string> HelpCommands() {
  std::vector<std::string> commands = {
      Quote(NUMALP_RUN),
      Quote(NUMALP_BENCH) + " fig1_thp_vs_linux",
      Quote(NUMALP_BENCH) + " trace_replay",
      Quote(NUMALP_REPORT),
      Quote(NUMALP_TRACEGEN),
  };
  std::stringstream examples(NUMALP_EXAMPLES);  // comma-separated paths
  for (std::string example; std::getline(examples, example, ',');) {
    if (!example.empty()) {
      commands.push_back(Quote(example));
    }
  }
  return commands;
}

// The flags of the rows `command --help` prints: lines "  --flag ...".
std::set<std::string> HelpFlags(const std::string& command) {
  std::set<std::string> flags;
  std::FILE* pipe = ::popen((command + " --help").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return flags;
  }
  std::string output;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0;) {
    output.append(buffer, n);
  }
  EXPECT_EQ(::pclose(pipe), 0) << command << " --help failed:\n" << output;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  --", 0) == 0) {
      const std::string flag = line.substr(2, line.find(' ', 2) - 2);
      EXPECT_TRUE(IsFlag(flag)) << command << ": " << line;
      flags.insert(flag);
    }
  }
  EXPECT_FALSE(flags.empty()) << command << " --help printed no settings rows:\n" << output;
  return flags;
}

std::set<std::string> ToolFlags() {
  std::set<std::string> flags;
  for (const std::string& command : HelpCommands()) {
    flags.merge(HelpFlags(command));
  }
  return flags;
}

// Backtick-delimited flags in docs/KNOBS.md.
std::set<std::string> DocFlags() {
  const fs::path doc = fs::path(NUMALP_SOURCE_DIR) / "docs" / "KNOBS.md";
  std::ifstream in(doc);
  EXPECT_TRUE(in.is_open()) << "cannot open " << doc;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::set<std::string> flags;
  std::size_t pos = 0;
  while ((pos = text.find('`', pos)) != std::string::npos) {
    const std::size_t close = text.find('`', pos + 1);
    if (close == std::string::npos) {
      break;
    }
    const std::string token = text.substr(pos + 1, close - pos - 1);
    if (IsFlag(token)) {
      flags.insert(token);
    }
    pos = close + 1;
  }
  return flags;
}

std::string Join(const std::set<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    out += (out.empty() ? "" : ", ") + item;
  }
  return out;
}

TEST(KnobsDoc, HelpListsTheKnownSurface) {
  // Canary against a broken --help reader: flags from each kind of binary.
  const std::set<std::string> flags = ToolFlags();
  for (const char* flag : {"--jobs", "--shards", "--machine", "--ibs-interval", "--trace-epochs",
                           "--from-summary", "--list-profiles", "--help"}) {
    EXPECT_TRUE(flags.count(flag)) << flag << " missing from: " << Join(flags);
  }
  EXPECT_GE(flags.size(), 24u) << Join(flags);
}

TEST(KnobsDoc, EveryFlagIsDocumented) {
  const std::set<std::string> doc = DocFlags();
  std::set<std::string> missing;
  for (const auto& flag : ToolFlags()) {
    if (!doc.count(flag)) {
      missing.insert(flag);
    }
  }
  EXPECT_TRUE(missing.empty()) << "flags the binaries accept but docs/KNOBS.md lacks: "
                               << Join(missing);
}

TEST(KnobsDoc, NoStaleFlagsInDoc) {
  const std::set<std::string> tools = ToolFlags();
  std::set<std::string> stale;
  for (const auto& flag : DocFlags()) {
    if (!tools.count(flag)) {
      stale.insert(flag);
    }
  }
  EXPECT_TRUE(stale.empty()) << "docs/KNOBS.md documents flags no binary accepts: "
                             << Join(stale);
}

}  // namespace
