#include "src/report/aggregate.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <sstream>

#include "src/report/sink.h"

namespace numalp::report {

namespace {

// --- Minimal JSON-object scanner -----------------------------------------
// The sinks write flat one-line objects whose values are strings, numbers
// and booleans; this parser accepts exactly that (plus whitespace). It is
// deliberately not a general JSON parser.

struct Cursor {
  const char* p;
  const char* end;
};

void SkipWs(Cursor& c) {
  while (c.p < c.end && (*c.p == ' ' || *c.p == '\t' || *c.p == '\r')) {
    ++c.p;
  }
}

bool ParseQuoted(Cursor& c, std::string* out) {
  if (c.p >= c.end || *c.p != '"') {
    return false;
  }
  ++c.p;
  out->clear();
  while (c.p < c.end && *c.p != '"') {
    char ch = *c.p++;
    if (ch == '\\' && c.p < c.end) {
      const char esc = *c.p++;
      switch (esc) {
        case 'n':
          ch = '\n';
          break;
        case 't':
          ch = '\t';
          break;
        default:
          ch = esc;  // \" \\ \/ and anything else: the literal character
      }
    }
    out->push_back(ch);
  }
  if (c.p >= c.end) {
    return false;
  }
  ++c.p;  // closing quote
  return true;
}

bool ParseBareToken(Cursor& c, std::string* out) {
  out->clear();
  while (c.p < c.end && *c.p != ',' && *c.p != '}' && *c.p != ' ' && *c.p != '\t') {
    out->push_back(*c.p++);
  }
  return !out->empty();
}

const std::map<std::string, const ResultField*>& FieldsByName() {
  static const std::map<std::string, const ResultField*> by_name = [] {
    std::map<std::string, const ResultField*> map;
    for (const ResultField& field : ResultSchema()) {
      map[field.name] = &field;
    }
    return map;
  }();
  return by_name;
}

}  // namespace

bool ScanFlatObject(const std::string& text,
                    const std::function<bool(const std::string& key, const std::string& value,
                                             bool quoted)>& set,
                    std::string* error) {
  Cursor c{text.data(), text.data() + text.size()};
  SkipWs(c);
  if (c.p >= c.end || *c.p != '{') {
    *error = "expected '{'";
    return false;
  }
  ++c.p;
  SkipWs(c);
  if (c.p < c.end && *c.p == '}') {
    return true;  // empty object
  }
  while (true) {
    SkipWs(c);
    std::string key;
    if (!ParseQuoted(c, &key)) {
      *error = "expected a quoted key";
      return false;
    }
    SkipWs(c);
    if (c.p >= c.end || *c.p != ':') {
      *error = "expected ':' after \"" + key + "\"";
      return false;
    }
    ++c.p;
    SkipWs(c);
    std::string value;
    const bool quoted = c.p < c.end && *c.p == '"';
    if (quoted ? !ParseQuoted(c, &value) : !ParseBareToken(c, &value)) {
      *error = "bad value for \"" + key + "\"";
      return false;
    }
    if (!set(key, value, quoted)) {
      *error = "bad value for \"" + key + "\": " + value;
      return false;
    }
    SkipWs(c);
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
      continue;
    }
    if (c.p < c.end && *c.p == '}') {
      return true;
    }
    *error = "expected ',' or '}'";
    return false;
  }
}

bool ParseJsonlLine(const std::string& line, ResultRow* row, std::string* error) {
  const auto& fields = FieldsByName();
  return ScanFlatObject(
      line, [&](const std::string& key, const std::string& value, bool quoted) {
        const auto it = fields.find(key);
        if (it == fields.end()) {
          return true;  // unknown keys are ignored
        }
        return quoted == (it->second->type == FieldType::kString) &&
               FieldFromString(*row, *it->second, value);
      },
      error);
}

std::vector<ResultRow> LoadJsonlFile(const std::string& path,
                                     std::vector<ParseIssue>* issues) {
  std::vector<ResultRow> rows;
  std::ifstream in(path);
  if (!in) {
    if (issues != nullptr) {
      issues->push_back({path, 0, "cannot open"});
    }
    return rows;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    ResultRow row;
    std::string error;
    if (!ParseJsonlLine(line, &row, &error)) {
      if (issues != nullptr) {
        issues->push_back({path, line_number, error});
      }
      continue;
    }
    if (row.status != "ok" && issues != nullptr) {
      issues->push_back({path, line_number, "status " + row.status, /*refused=*/true});
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<ResultRow> LoadResults(const std::string& path,
                                   std::vector<ParseIssue>* issues) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(path, ec)) {
    return LoadJsonlFile(path, issues);
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<ResultRow> rows;
  for (const std::string& file : files) {
    std::vector<ResultRow> file_rows = LoadJsonlFile(file, issues);
    rows.insert(rows.end(), file_rows.begin(), file_rows.end());
  }
  return rows;
}

namespace {

// The coordinates naming one results column, in summary-key order.
struct Coordinate {
  const char* name;
  std::string AggregateRow::* member;
  std::string ResultRow::* source;
};

constexpr Coordinate kCoordinates[] = {
    {"bench", &AggregateRow::bench, &ResultRow::bench},
    {"machine", &AggregateRow::machine, &ResultRow::machine},
    {"workload", &AggregateRow::workload, &ResultRow::workload},
    {"policy", &AggregateRow::policy, &ResultRow::policy},
    {"variant", &AggregateRow::variant, &ResultRow::variant},
};

enum class Reduce { kMean, kMin, kMax };

template <auto kMember>
double From(const ResultRow& row) {
  return static_cast<double>(row.*kMember);
}

std::string Pct1(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", value);
  return buf;
}

std::string Num1(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  return buf;
}

// The numeric columns of AggregateRow, in summary-key order: the summary
// key, the member, the ResultRow value reduced over a column's rows, the
// reduction, and the header and cell format of PrintAggregates' metrics
// table (nullptr: not shown there). Aggregate, the summary/CSV/JSONL
// writers, ParseSummaryJson and the metrics table all read this one list.
struct Column {
  const char* name;
  double AggregateRow::* member;
  double (*source)(const ResultRow&);
  Reduce reduce;
  const char* label;
  std::string (*cell)(double);
};

constexpr Column kColumns[] = {
    {"mean_improvement_pct", &AggregateRow::mean_improvement_pct,
     From<&ResultRow::improvement_pct>, Reduce::kMean, "improv", Pct1},
    {"min_improvement_pct", &AggregateRow::min_improvement_pct,
     From<&ResultRow::improvement_pct>, Reduce::kMin, nullptr, nullptr},
    {"max_improvement_pct", &AggregateRow::max_improvement_pct,
     From<&ResultRow::improvement_pct>, Reduce::kMax, nullptr, nullptr},
    {"runtime_ms", &AggregateRow::runtime_ms, From<&ResultRow::runtime_ms>, Reduce::kMean,
     nullptr, nullptr},
    {"lar_pct", &AggregateRow::lar_pct, From<&ResultRow::lar_pct>, Reduce::kMean, "LAR%", Num1},
    {"imbalance_pct", &AggregateRow::imbalance_pct, From<&ResultRow::imbalance_pct>,
     Reduce::kMean, "imbal%", Num1},
    {"pamup_pct", &AggregateRow::pamup_pct, From<&ResultRow::pamup_pct>, Reduce::kMean,
     "PAMUP%", Num1},
    {"nhp", &AggregateRow::nhp, From<&ResultRow::nhp>, Reduce::kMean, "NHP", Num1},
    {"psp_pct", &AggregateRow::psp_pct, From<&ResultRow::psp_pct>, Reduce::kMean, "PSP%", Num1},
    {"walk_l2_miss_pct", &AggregateRow::walk_l2_miss_pct, From<&ResultRow::walk_l2_miss_pct>,
     Reduce::kMean, "walk%", Num1},
    {"steady_fault_share_pct", &AggregateRow::steady_fault_share_pct,
     From<&ResultRow::steady_fault_share_pct>, Reduce::kMean, "fault%", Num1},
    {"max_fault_ms", &AggregateRow::max_fault_ms, From<&ResultRow::max_fault_ms>,
     Reduce::kMean, nullptr, nullptr},
    {"thp_coverage_pct", &AggregateRow::thp_coverage_pct, From<&ResultRow::thp_coverage_pct>,
     Reduce::kMean, "THPcov%", Num1},
    {"overhead_pct", &AggregateRow::overhead_pct, From<&ResultRow::overhead_pct>,
     Reduce::kMean, "ovh%", Num1},
    {"migrations", &AggregateRow::migrations, From<&ResultRow::migrations>, Reduce::kMean,
     nullptr, nullptr},
    {"splits", &AggregateRow::splits, From<&ResultRow::splits>, Reduce::kMean, nullptr,
     nullptr},
    {"promotions", &AggregateRow::promotions, From<&ResultRow::promotions>, Reduce::kMean,
     nullptr, nullptr},
    {"thp_fallback_faults", &AggregateRow::thp_fallback_faults,
     From<&ResultRow::thp_fallback_faults>, Reduce::kMean, nullptr, nullptr},
    {"buddy_alloc_failures", &AggregateRow::buddy_alloc_failures,
     From<&ResultRow::buddy_alloc_failures>, Reduce::kMean, nullptr, nullptr},
    {"frag_index_pct", &AggregateRow::frag_index_pct, From<&ResultRow::frag_index_pct>,
     Reduce::kMean, nullptr, nullptr},
};

// Summary keys, in the order WriteSummaryJson writes them: the
// coordinates, "runs", then the numeric columns.
constexpr std::size_t kRunsKey = std::size(kCoordinates);
constexpr std::size_t kSummaryKeys = kRunsKey + 1 + std::size(kColumns);

const char* KeyName(std::size_t key) {
  if (key < kRunsKey) {
    return kCoordinates[key].name;
  }
  return key == kRunsKey ? "runs" : kColumns[key - kRunsKey - 1].name;
}

std::string KeyValue(const AggregateRow& row, std::size_t key) {
  if (key < kRunsKey) {
    return row.*kCoordinates[key].member;
  }
  return key == kRunsKey ? std::to_string(row.runs)
                         : CanonicalDouble(row.*kColumns[key - kRunsKey - 1].member);
}

// Parses `text` into `key` strictly: the whole token, coordinates quoted and
// numbers bare, `runs` a positive integer.
bool SetKey(AggregateRow& row, std::size_t key, const std::string& text, bool quoted) {
  if (quoted != (key < kRunsKey)) {
    return false;
  }
  if (key < kRunsKey) {
    row.*kCoordinates[key].member = text;
    return true;
  }
  const char* end = text.data() + text.size();
  if (key == kRunsKey) {
    const auto result = std::from_chars(text.data(), end, row.runs);
    return result.ec == std::errc() && result.ptr == end && row.runs > 0;
  }
  const auto result = std::from_chars(text.data(), end, row.*kColumns[key - kRunsKey - 1].member);
  return result.ec == std::errc() && result.ptr == end;
}

void WriteAggregateObject(std::ostream& out, const AggregateRow& aggregate,
                          const char* indent) {
  out << indent << '{';
  for (std::size_t key = 0; key < kSummaryKeys; ++key) {
    out << (key == 0 ? "" : ",") << '"' << KeyName(key) << "\":";
    if (key < kRunsKey) {
      out << '"' << JsonEscape(KeyValue(aggregate, key)) << '"';
    } else {
      out << KeyValue(aggregate, key);
    }
  }
  out << '}';
}

// First-appearance-order list of the distinct values `get` takes on `rows`.
template <typename Get>
std::vector<std::string> Distinct(const std::vector<AggregateRow>& rows, Get get) {
  std::vector<std::string> values;
  for (const AggregateRow& row : rows) {
    if (std::find(values.begin(), values.end(), get(row)) == values.end()) {
      values.push_back(get(row));
    }
  }
  return values;
}

}  // namespace

std::vector<AggregateRow> Aggregate(const std::vector<ResultRow>& rows) {
  std::vector<AggregateRow> aggregates;
  std::map<std::string, std::size_t> index;
  for (const ResultRow& row : rows) {
    std::string key;
    for (const Coordinate& coordinate : kCoordinates) {
      key += row.*coordinate.source;
      key += '|';
    }
    const auto [it, added] = index.try_emplace(key, aggregates.size());
    if (added) {
      AggregateRow& aggregate = aggregates.emplace_back();
      for (const Coordinate& coordinate : kCoordinates) {
        aggregate.*coordinate.member = row.*coordinate.source;
      }
      for (const Column& column : kColumns) {
        if (column.reduce != Reduce::kMean) {
          aggregate.*column.member = column.source(row);
        }
      }
    }
    AggregateRow& aggregate = aggregates[it->second];
    ++aggregate.runs;
    for (const Column& column : kColumns) {
      double& value = aggregate.*column.member;
      const double x = column.source(row);
      switch (column.reduce) {
        case Reduce::kMean:
          value += x;
          break;
        case Reduce::kMin:
          value = std::min(value, x);
          break;
        case Reduce::kMax:
          value = std::max(value, x);
          break;
      }
    }
  }
  // Accumulate in row order, then multiply by the reciprocal once.
  for (AggregateRow& aggregate : aggregates) {
    const double inv = 1.0 / aggregate.runs;
    for (const Column& column : kColumns) {
      if (column.reduce == Reduce::kMean) {
        aggregate.*column.member *= inv;
      }
    }
  }
  return aggregates;
}

void WriteSummaryJson(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  out << "{\n  \"schema\": \"numalp-bench-summary-v1\",\n  \"groups\": [\n";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    WriteAggregateObject(out, aggregates[i], "    ");
    out << (i + 1 < aggregates.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

bool ParseSummaryJson(const std::string& contents, std::vector<AggregateRow>* out,
                      std::string* error) {
  out->clear();
  if (contents.find("\"numalp-bench-summary-v1\"") == std::string::npos) {
    *error = "not a numalp-bench-summary-v1 document";
    return false;
  }
  static const std::map<std::string, std::size_t> keys = [] {
    std::map<std::string, std::size_t> map;
    for (std::size_t key = 0; key < kSummaryKeys; ++key) {
      map[KeyName(key)] = key;
    }
    return map;
  }();
  // One group object per line (WriteSummaryJson's shape); every other line
  // is document framing.
  std::istringstream in(contents);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t at = line.find_first_not_of(" \t\r");
    if (at == std::string::npos || line[at] != '{' ||
        line.find_first_not_of(" \t\r", at + 1) == std::string::npos) {
      continue;
    }
    AggregateRow row;
    std::vector<bool> seen(kSummaryKeys, false);
    std::string scan_error;
    const bool scanned = ScanFlatObject(
        line, [&](const std::string& name, const std::string& value, bool quoted) {
          const auto it = keys.find(name);
          if (it == keys.end()) {
            return true;  // unknown keys are ignored (schema growth)
          }
          seen[it->second] = true;
          return SetKey(row, it->second, value, quoted);
        },
        &scan_error);
    if (!scanned) {
      *error = "line " + std::to_string(line_number) + ": " + scan_error;
      return false;
    }
    for (std::size_t key = 0; key < kSummaryKeys; ++key) {
      if (!seen[key]) {
        *error = "line " + std::to_string(line_number) + ": missing \"" + KeyName(key) + "\"";
        return false;
      }
    }
    out->push_back(std::move(row));
  }
  if (out->empty()) {
    *error = "no groups found";
    return false;
  }
  return true;
}

void WriteAggregatesCsv(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  for (std::size_t key = 0; key < kSummaryKeys; ++key) {
    out << (key == 0 ? "" : ",") << KeyName(key);
  }
  out << '\n';
  for (const AggregateRow& aggregate : aggregates) {
    for (std::size_t key = 0; key < kSummaryKeys; ++key) {
      const std::string value = KeyValue(aggregate, key);
      out << (key == 0 ? "" : ",") << (key < kRunsKey ? CsvEscape(value) : value);
    }
    out << '\n';
  }
}

void WriteAggregatesJsonl(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  for (const AggregateRow& aggregate : aggregates) {
    WriteAggregateObject(out, aggregate, "");
    out << '\n';
  }
}

void PrintAggregates(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  for (const std::string& bench : Distinct(aggregates, [](const AggregateRow& a) {
         return a.bench;
       })) {
    std::vector<AggregateRow> of_bench;
    for (const AggregateRow& a : aggregates) {
      if (a.bench == bench) {
        of_bench.push_back(a);
      }
    }
    out << "## " << bench << "\n\n";
    const std::vector<std::string> policies =
        Distinct(of_bench, [](const AggregateRow& a) { return a.policy; });

    // Improvement pivot, one block per machine: the paper's bar charts as
    // rows (workload x policy, mean % improvement over Linux-4K).
    for (const std::string& machine :
         Distinct(of_bench, [](const AggregateRow& a) { return a.machine; })) {
      out << "improvement over Linux-4K on " << machine << " (mean over "
          << "seeds)\n";
      std::vector<std::string> header = {"workload", "variant"};
      header.insert(header.end(), policies.begin(), policies.end());
      std::vector<std::vector<std::string>> table;
      for (const AggregateRow& a : of_bench) {
        if (a.machine != machine) {
          continue;
        }
        // One table row per (workload, variant); fill the policy columns.
        const std::vector<std::string> key = {a.workload, a.variant};
        auto row_it = std::find_if(table.begin(), table.end(),
                                   [&](const std::vector<std::string>& row) {
                                     return row[0] == key[0] && row[1] == key[1];
                                   });
        if (row_it == table.end()) {
          std::vector<std::string> row = key;
          row.resize(2 + policies.size());
          table.push_back(row);
          row_it = table.end() - 1;
        }
        const auto policy_it = std::find(policies.begin(), policies.end(), a.policy);
        (*row_it)[2 + static_cast<std::size_t>(policy_it - policies.begin())] =
            Pct1(a.mean_improvement_pct);
      }
      PrintAlignedTable(out, header, table);
      out << '\n';
    }

    // Per-column metrics: the numbers behind Tables 1-3.
    out << "metrics (seed means)\n";
    std::vector<std::string> header = {"machine", "workload", "policy", "variant", "runs"};
    for (const Column& column : kColumns) {
      if (column.label != nullptr) {
        header.push_back(column.label);
      }
    }
    std::vector<std::vector<std::string>> table;
    for (const AggregateRow& a : of_bench) {
      std::vector<std::string> row = {a.machine, a.workload, a.policy, a.variant,
                                      std::to_string(a.runs)};
      for (const Column& column : kColumns) {
        if (column.label != nullptr) {
          row.push_back(column.cell(a.*column.member));
        }
      }
      table.push_back(std::move(row));
    }
    PrintAlignedTable(out, header, table);
    out << '\n';
  }
}

}  // namespace numalp::report
