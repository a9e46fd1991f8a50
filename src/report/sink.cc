#include "src/report/sink.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace numalp::report {

std::string CsvEscape(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) {
    return value;
  }
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"') {
      quoted += '"';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

namespace {

// Markdown cells: canonical for identity fields, 2-decimal for doubles.
std::string HumanCell(const ResultRow& row, const ResultField& field) {
  if (field.type == FieldType::kDouble) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", row.*(field.d));
    return buf;
  }
  return FieldToString(row, field);
}

}  // namespace

void CsvSink::Write(const ResultRow& row) {
  const auto& schema = ResultSchema();
  if (!wrote_header_) {
    for (std::size_t f = 0; f < schema.size(); ++f) {
      out_ << (f == 0 ? "" : ",") << schema[f].name;
    }
    out_ << '\n';
    wrote_header_ = true;
  }
  for (std::size_t f = 0; f < schema.size(); ++f) {
    out_ << (f == 0 ? "" : ",") << CsvEscape(FieldToString(row, schema[f]));
  }
  out_ << '\n';
}

void JsonlSink::Write(const ResultRow& row) {
  const auto& schema = ResultSchema();
  out_ << '{';
  for (std::size_t f = 0; f < schema.size(); ++f) {
    const ResultField& field = schema[f];
    out_ << (f == 0 ? "" : ",") << '"' << field.name << "\":";
    if (field.type == FieldType::kString) {
      out_ << '"' << JsonEscape(FieldToString(row, field)) << '"';
    } else {
      out_ << FieldToString(row, field);
    }
  }
  out_ << "}\n";
}

void MarkdownSink::Write(const ResultRow& row) {
  const auto& schema = ResultSchema();
  std::vector<std::string> cells;
  cells.reserve(schema.size());
  for (const ResultField& field : schema) {
    cells.push_back(HumanCell(row, field));
  }
  rows_.push_back(std::move(cells));
}

void MarkdownSink::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  std::vector<std::string> header;
  for (const ResultField& field : ResultSchema()) {
    header.push_back(field.name);
  }
  PrintAlignedTable(out_, header, rows_);
}

void PrintAlignedTable(std::ostream& out, const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size());
  for (std::size_t f = 0; f < header.size(); ++f) {
    widths[f] = header[f].size();
    for (const auto& row : rows) {
      widths[f] = std::max(widths[f], row[f].size());
    }
  }
  auto line = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t f = 0; f < cells.size(); ++f) {
      out << ' ' << cells[f] << std::string(widths[f] - cells[f].size(), ' ') << " |";
    }
    out << '\n';
  };
  line(header);
  std::vector<std::string> rule;
  for (std::size_t w : widths) {
    rule.push_back(std::string(w, '-'));
  }
  line(rule);
  for (const auto& row : rows) {
    line(row);
  }
}

void MultiSink::Add(std::unique_ptr<ResultSink> sink) { sinks_.push_back(std::move(sink)); }

void MultiSink::Write(const ResultRow& row) {
  for (auto& sink : sinks_) {
    sink->Write(row);
  }
}

void MultiSink::Finish() {
  for (auto& sink : sinks_) {
    sink->Finish();
  }
}

std::unique_ptr<ResultSink> MakeSink(const std::string& format, std::ostream& out) {
  if (format == "csv") {
    return std::make_unique<CsvSink>(out);
  }
  if (format == "jsonl") {
    return std::make_unique<JsonlSink>(out);
  }
  if (format == "md") {
    return std::make_unique<MarkdownSink>(out);
  }
  return nullptr;
}

namespace {

// A sink that owns its output file; the inner sink holds a reference to it.
class OwningFileSink : public ResultSink {
 public:
  OwningFileSink(std::unique_ptr<std::ofstream> stream, std::unique_ptr<ResultSink> inner)
      : stream_(std::move(stream)), inner_(std::move(inner)) {}
  void Write(const ResultRow& row) override { inner_->Write(row); }
  void Finish() override {
    inner_->Finish();
    stream_->flush();
  }

 private:
  std::unique_ptr<std::ofstream> stream_;
  std::unique_ptr<ResultSink> inner_;
};

}  // namespace

std::unique_ptr<ResultSink> OpenFileSink(const std::string& format, const std::string& path,
                                         std::string* error) {
  std::error_code ec;
  const auto existing = std::filesystem::file_size(path, ec);
  const bool has_content = !ec && existing > 0;
  auto stream = std::make_unique<std::ofstream>(path, std::ios::app);
  if (!*stream) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return nullptr;
  }
  std::unique_ptr<ResultSink> inner;
  if (format == "csv") {
    inner = std::make_unique<CsvSink>(*stream, /*write_header=*/!has_content);
  } else {
    inner = MakeSink(format, *stream);
  }
  if (inner == nullptr) {
    if (error != nullptr) {
      *error = "unknown format " + format;
    }
    return nullptr;
  }
  return std::make_unique<OwningFileSink>(std::move(stream), std::move(inner));
}

}  // namespace numalp::report
