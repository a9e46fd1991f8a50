// Drift gate for docs/KNOBS.md: re-extracts the knob surface from the source
// tree and fails when the document and the code disagree in either direction.
//
// Extraction rules (mirrors the documented contract in docs/KNOBS.md):
//   - An environment knob is a NUMALP_[A-Z0-9_]+ token appearing inside a
//     string literal anywhere under src/, tools/, or bench/. Unquoted uses
//     (the NUMALP_LOG macro, NUMALP_SRC_* header guards, CMake options) are
//     not env vars and are deliberately invisible to this scan.
//   - A CLI flag is a string literal whose *entire* content is --[a-z0-9-]+.
//     Flags mentioned inside longer help-text strings don't count; the
//     parser's exact-match literal is the source of truth.
//
// The reverse direction keeps the doc honest too: every `NUMALP_*` or
// `--flag` token in backticks in docs/KNOBS.md must still exist in code.
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/report/options.h"

#ifndef NUMALP_SOURCE_DIR
#error "CMake must define NUMALP_SOURCE_DIR for knobs_doc_test"
#endif

namespace {

namespace fs = std::filesystem;

bool IsEnvChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

bool IsFlagLiteral(const std::string& text) {
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

void HarvestEnvTokens(const std::string& text, std::set<std::string>* out) {
  const std::string needle = "NUMALP_";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    std::size_t end = pos + needle.size();
    while (end < text.size() && IsEnvChar(text[end])) {
      ++end;
    }
    if (end > pos + needle.size()) {
      out->insert(text.substr(pos, end - pos));
    }
    pos = end;
  }
}

// One file's worth of string literals, honoring // and /* */ comments and
// char literals (sink.cc uses '"'). String literals never span lines in this
// codebase (no raw strings), so block-comment state is the only carry-over.
void ScanSourceFile(const fs::path& path, std::set<std::string>* env_knobs,
                    std::set<std::string>* flags) {
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "cannot open " << path;
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (in_block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        break;  // line comment: rest of line is dead
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      if (c == '\'') {  // char literal: skip to its close, honoring escapes
        ++i;
        while (i < line.size() && line[i] != '\'') {
          if (line[i] == '\\') {
            ++i;
          }
          ++i;
        }
        continue;
      }
      if (c != '"') {
        continue;
      }
      std::string content;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          content += line[i + 1];
          i += 2;
        } else {
          content += line[i];
          ++i;
        }
      }
      HarvestEnvTokens(content, env_knobs);
      if (IsFlagLiteral(content)) {
        flags->insert(content);
      }
    }
  }
}

struct KnobSurface {
  std::set<std::string> env_knobs;
  std::set<std::string> flags;
};

KnobSurface ScanSourceTree() {
  KnobSurface surface;
  const fs::path root(NUMALP_SOURCE_DIR);
  for (const char* dir : {"src", "tools", "bench"}) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h") {
        continue;
      }
      ScanSourceFile(entry.path(), &surface.env_knobs, &surface.flags);
    }
  }
  return surface;
}

// Backtick-delimited tokens in docs/KNOBS.md that look like knobs.
KnobSurface ScanKnobsDoc(const fs::path& doc) {
  KnobSurface surface;
  std::ifstream in(doc);
  EXPECT_TRUE(in.is_open()) << "cannot open " << doc;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::size_t pos = 0;
  while ((pos = text.find('`', pos)) != std::string::npos) {
    const std::size_t close = text.find('`', pos + 1);
    if (close == std::string::npos) {
      break;
    }
    const std::string token = text.substr(pos + 1, close - pos - 1);
    if (token.rfind("NUMALP_", 0) == 0) {
      std::set<std::string> exact;
      HarvestEnvTokens(token, &exact);
      // Only whole-token matches (`NUMALP_*` wildcard prose doesn't count).
      if (exact.size() == 1 && *exact.begin() == token) {
        surface.env_knobs.insert(token);
      }
    } else if (IsFlagLiteral(token)) {
      surface.flags.insert(token);
    }
    pos = close + 1;
  }
  return surface;
}

fs::path DocPath() { return fs::path(NUMALP_SOURCE_DIR) / "docs" / "KNOBS.md"; }

std::string Join(const std::set<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) {
      out += ", ";
    }
    out += item;
  }
  return out;
}

TEST(KnobsDoc, DocumentExists) {
  ASSERT_TRUE(fs::exists(DocPath()))
      << "docs/KNOBS.md is missing; every runtime knob must be documented "
         "there (see the file header for the extraction contract)";
}

TEST(KnobsDoc, ScannerFindsTheKnownSurface) {
  // Canary against a silently broken scanner: the environment it finds must
  // be exactly the settings table's env column (the only environment the
  // tools read), and these flags have existed since the surfaces were
  // introduced.
  const KnobSurface source = ScanSourceTree();
  numalp::report::Options options;
  std::set<std::string> table_env;
  for (const numalp::report::Setting& setting : numalp::report::UniformSettings(&options)) {
    if (setting.env != nullptr) {
      table_env.insert(setting.env);
    }
  }
  EXPECT_EQ(source.env_knobs, table_env) << "scanned: " << Join(source.env_knobs)
                                         << "; table: " << Join(table_env);
  EXPECT_TRUE(source.flags.count("--jobs"));
  EXPECT_TRUE(source.flags.count("--machine"));
  EXPECT_TRUE(source.flags.count("--from-summary"));
  EXPECT_GE(source.flags.size(), 30u);
}

TEST(KnobsDoc, EveryEnvKnobIsDocumented) {
  const KnobSurface source = ScanSourceTree();
  const KnobSurface doc = ScanKnobsDoc(DocPath());
  std::set<std::string> missing;
  for (const auto& knob : source.env_knobs) {
    if (!doc.env_knobs.count(knob)) {
      missing.insert(knob);
    }
  }
  EXPECT_TRUE(missing.empty())
      << "env knobs in source but not in docs/KNOBS.md: " << Join(missing);
}

TEST(KnobsDoc, EveryFlagIsDocumented) {
  const KnobSurface source = ScanSourceTree();
  const KnobSurface doc = ScanKnobsDoc(DocPath());
  std::set<std::string> missing;
  for (const auto& flag : source.flags) {
    if (!doc.flags.count(flag)) {
      missing.insert(flag);
    }
  }
  EXPECT_TRUE(missing.empty())
      << "CLI flags in source but not in docs/KNOBS.md: " << Join(missing);
}

TEST(KnobsDoc, NoStaleEnvKnobsInDoc) {
  const KnobSurface source = ScanSourceTree();
  const KnobSurface doc = ScanKnobsDoc(DocPath());
  std::set<std::string> stale;
  for (const auto& knob : doc.env_knobs) {
    if (!source.env_knobs.count(knob)) {
      stale.insert(knob);
    }
  }
  EXPECT_TRUE(stale.empty())
      << "docs/KNOBS.md documents env knobs that no longer exist: "
      << Join(stale);
}

TEST(KnobsDoc, NoStaleFlagsInDoc) {
  const KnobSurface source = ScanSourceTree();
  const KnobSurface doc = ScanKnobsDoc(DocPath());
  std::set<std::string> stale;
  for (const auto& flag : doc.flags) {
    if (!source.flags.count(flag)) {
      stale.insert(flag);
    }
  }
  EXPECT_TRUE(stale.empty())
      << "docs/KNOBS.md documents CLI flags that no longer exist: "
      << Join(stale);
}

}  // namespace
