// Pluggable result sinks: every bench/example/tool writes its grid cells as
// ResultRows through this interface instead of hand-rolled printf tables.
// Three formats ship (DESIGN.md Section 6): CSV and JSONL emit one canonical
// machine-readable record per row (byte-identical across --jobs values,
// because rows arrive in grid-coordinate order — see collector.h), and the
// markdown sink buffers rows to print one aligned human-readable table at
// Finish(). MultiSink fans a row out to several sinks (stdout + --out-dir
// files).
#ifndef NUMALP_SRC_REPORT_SINK_H_
#define NUMALP_SRC_REPORT_SINK_H_

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/report/result_row.h"

namespace numalp::report {

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void Write(const ResultRow& row) = 0;
  // Flushes buffered output. Idempotent; called once by the owner when the
  // sweep is complete (the markdown sink needs the full row set to align).
  virtual void Finish() {}
};

// RFC 4180 field quoting, shared with the aggregate CSV writer.
std::string CsvEscape(const std::string& value);

// Renders one '|'-bordered aligned table (header, rule, rows); every row
// must have header.size() cells. Shared by MarkdownSink and the aggregate
// renderer so the two markdown surfaces cannot drift.
void PrintAlignedTable(std::ostream& out, const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows);

// Comma-separated values: a header line (schema order), then one line per
// row. Values use the canonical serialization of result_row.h; fields
// containing commas or quotes are double-quoted (RFC 4180). Construct with
// write_header=false when appending to a file that already has one.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& out, bool write_header = true)
      : out_(out), wrote_header_(!write_header) {}
  void Write(const ResultRow& row) override;

 private:
  std::ostream& out_;
  bool wrote_header_ = false;
};

// JSON Lines: one flat JSON object per row, keys in schema order. The
// aggregator (aggregate.h) parses exactly this shape back.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}
  void Write(const ResultRow& row) override;

 private:
  std::ostream& out_;
};

// Aligned markdown table, buffered until Finish(). Doubles are rounded to
// two decimals for humans; use CSV/JSONL for full precision.
class MarkdownSink : public ResultSink {
 public:
  explicit MarkdownSink(std::ostream& out) : out_(out) {}
  void Write(const ResultRow& row) override;
  void Finish() override;

 private:
  std::ostream& out_;
  std::vector<std::vector<std::string>> rows_;
  bool finished_ = false;
};

// Fans out to any number of owned sinks. Writing with no sinks is a no-op.
class MultiSink : public ResultSink {
 public:
  void Add(std::unique_ptr<ResultSink> sink);
  bool empty() const { return sinks_.empty(); }
  void Write(const ResultRow& row) override;
  void Finish() override;

 private:
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

// Builds the sink for `format` writing to `out` (not owned).
std::unique_ptr<ResultSink> MakeSink(const std::string& format, std::ostream& out);

// Opens `path` and builds a sink of `format` that owns the stream. Existing
// files are appended to, not truncated — successive invocations into one
// results directory accumulate rows (a CSV header is only written into an
// empty file); remove the directory for a fresh sweep (REPRODUCING.md).
// Returns nullptr (with *error set) when the file cannot be created.
std::unique_ptr<ResultSink> OpenFileSink(const std::string& format, const std::string& path,
                                         std::string* error);

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_SINK_H_
