#include "src/report/collector.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <map>

#include "src/report/aggregate.h"
#include "src/report/result_row.h"

namespace numalp::report {

int Sweep::AddBaseline(RunSpec base, const std::string& variant, int seed_index,
                       const std::vector<PolicyKind>& compared) {
  base.policy = MakePolicyConfig(PolicyKind::kLinux4K);
  const int index = static_cast<int>(cells.size());
  cells.push_back({base, variant, index, seed_index});
  for (const PolicyKind kind : compared) {
    base.policy = MakePolicyConfig(kind);
    AddCompared(base, variant, index);
  }
  return index;
}

void Sweep::AddCompared(const RunSpec& cell, const std::string& variant, int baseline) {
  cells.push_back(
      {cell, variant, baseline, cells[static_cast<std::size_t>(baseline)].seed_index});
}

Sweep& Sweep::AddGrid(const ExperimentGrid& grid) {
  std::vector<RunSpec> specs;
  GridResults unused;
  std::vector<internal::CellPlace> places;
  internal::ExpandGrid(grid, specs, unused, &places);
  const int start = static_cast<int>(cells.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cells.push_back({std::move(specs[i]), "", start + places[i].baseline, places[i].seed_index});
  }
  return *this;
}

GridReport::GridReport(const Options& options, const ToolInfo& info)
    : tool_(info.name), bench_id_(info.bench_id), sinks_(std::make_unique<MultiSink>()),
      runner_(options.jobs) {
  sinks_->Add(MakeSink(options.format, std::cout));
  if (!options.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: cannot create %s: %s\n", info.name, options.out_dir.c_str(),
                   ec.message().c_str());
      std::exit(2);
    }
    const std::string stem = options.out_dir + "/" + std::string(info.bench_id);
    csv_path_ = stem + ".csv";
    jsonl_path_ = stem + ".jsonl";
    manifest_path_ = stem + ".manifest.json";
    if (options.resume) {
      LoadResumeState();
    }
    // Only a recovered prefix is appended to. Otherwise this bench's files
    // start empty and its stale manifest goes, so a re-run replaces its own
    // rows; other benches' files in the directory are left alone.
    const bool append = cells_done_ > 0;
    if (!append) {
      std::filesystem::remove(manifest_path_, ec);
    }
    const std::ios::openmode mode = append ? std::ios::app : std::ios::trunc;
    csv_stream_ = std::make_unique<std::ofstream>(csv_path_, mode);
    jsonl_stream_ = std::make_unique<std::ofstream>(jsonl_path_, mode);
    if (!*csv_stream_ || !*jsonl_stream_) {
      std::fprintf(stderr, "%s: cannot open %s.{csv,jsonl}\n", info.name, stem.c_str());
      std::exit(2);
    }
    sinks_->Add(std::make_unique<CsvSink>(*csv_stream_, /*write_header=*/!append));
    sinks_->Add(std::make_unique<JsonlSink>(*jsonl_stream_));
    checkpointing_ = true;
  }
}

GridReport::GridReport(std::unique_ptr<ResultSink> sink, std::string bench_id, int jobs)
    : bench_id_(std::move(bench_id)), sinks_(std::make_unique<MultiSink>()), runner_(jobs) {
  sinks_->Add(std::move(sink));
}

GridReport::~GridReport() { Finish(); }

void GridReport::Checkpoint() {
  if (!checkpointing_) {
    return;
  }
  csv_stream_->flush();
  jsonl_stream_->flush();
  ++cells_done_;
  const std::string tmp = manifest_path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "{\"version\":1,\"bench\":\"" << JsonEscape(bench_id_)
        << "\",\"cells_done\":" << cells_done_
        << ",\"csv_bytes\":" << static_cast<std::uint64_t>(csv_stream_->tellp())
        << ",\"jsonl_bytes\":" << static_cast<std::uint64_t>(jsonl_stream_->tellp())
        << "}\n";
  }
  // The rename is what makes a row durable: a kill at any point leaves
  // either the old manifest (the new row's bytes become a torn tail that
  // resume truncates away) or the new one (the row is fully flushed first).
  std::error_code ec;
  std::filesystem::rename(tmp, manifest_path_, ec);
}

void GridReport::RejectManifest(const std::string& why) const {
  std::fprintf(stderr, "%s: %s: %s\n", tool_.c_str(), manifest_path_.c_str(), why.c_str());
  std::exit(2);
}

void GridReport::LoadResumeState() {
  std::ifstream manifest(manifest_path_);
  if (!manifest) {
    return;  // no manifest: nothing recorded, run from scratch
  }
  // Every key Checkpoint writes must be present and well formed, and the
  // manifest must describe this bench's files: resuming from a misread or
  // foreign manifest would splice rows that no run wrote.
  const std::string text((std::istreambuf_iterator<char>(manifest)),
                         std::istreambuf_iterator<char>());
  std::string bench;
  std::map<std::string, std::uint64_t> numbers = {
      {"version", 0}, {"cells_done", 0}, {"csv_bytes", 0}, {"jsonl_bytes", 0}};
  std::map<std::string, bool> seen;
  std::string error;
  const bool scanned = ScanFlatObject(
      text,
      [&](const std::string& key, const std::string& value, bool quoted) {
        if (key == "bench") {
          bench = value;
        } else if (const auto it = numbers.find(key); it != numbers.end()) {
          const char* end = value.data() + value.size();
          if (quoted || std::from_chars(value.data(), end, it->second).ptr != end) {
            return false;
          }
        } else {
          return true;  // unknown keys are ignored
        }
        return seen[key] = true;
      },
      &error);
  if (!scanned) {
    RejectManifest(error);
  }
  for (const char* key : {"version", "bench", "cells_done", "csv_bytes", "jsonl_bytes"}) {
    if (!seen[key]) {
      RejectManifest(std::string("missing \"") + key + "\"");
    }
  }
  if (numbers["version"] != 1) {
    RejectManifest("bad value for \"version\": " + std::to_string(numbers["version"]));
  }
  if (bench != bench_id_) {
    RejectManifest("bench \"" + bench + "\" is not this bench (\"" + bench_id_ + "\")");
  }
  // Flushes precede the manifest's rename, so offsets past the end of a
  // file mean the manifest and the data disagree.
  for (const auto& [key, path] :
       {std::pair{"csv_bytes", csv_path_}, std::pair{"jsonl_bytes", jsonl_path_}}) {
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (numbers[key] > (ec ? 0 : size)) {
      RejectManifest("\"" + std::string(key) + "\": " + std::to_string(numbers[key]) +
                     " is past the end of " + path);
    }
  }
  const std::uint64_t cells_done = numbers["cells_done"];
  if (cells_done == 0) {
    return;
  }
  // Drop any torn tail past the durable offsets.
  std::error_code ec;
  std::filesystem::resize_file(csv_path_, numbers["csv_bytes"], ec);
  if (!ec) {
    std::filesystem::resize_file(jsonl_path_, numbers["jsonl_bytes"], ec);
  }
  if (ec) {
    RejectManifest("cannot truncate to the recorded offsets: " + ec.message());
  }
  resume_rows_ = LoadJsonlFile(jsonl_path_, nullptr);
  if (resume_rows_.size() > cells_done) {
    resume_rows_.resize(cells_done);
  }
  cells_done_ = resume_rows_.size();
}

void GridReport::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  sinks_->Finish();
}

int GridReport::Close() {
  Finish();
  for (const std::string& cell : failed_cells_) {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), cell.c_str());
  }
  return failed_cells_.empty() ? 0 : 1;
}

void GridReport::NoteIfFailed(std::size_t index, const ResultRow& row) {
  if (row.status != "ok") {
    failed_cells_.push_back("cell " + std::to_string(index) + " (" + row.machine + "/" +
                            row.workload + "/" + row.policy + "): " + row.status);
  }
}

std::vector<RunResult> GridReport::Run(const Sweep& sweep) {
  // Cells stream in index order, so each cell's baseline (a lower index) has
  // already been recorded here when the cell's row is built. On resume the
  // skipped prefix's cycle counts come from the recovered rows (one row per
  // cell, positionally), so a surviving cell whose baseline was recovered
  // still reports the exact improvement.
  const std::size_t skip = resume_rows_.size();
  if (skip > sweep.cells.size()) {
    RejectManifest("\"cells_done\": " + std::to_string(skip) + " exceeds the sweep's " +
                   std::to_string(sweep.cells.size()) + " cells");
  }
  runner_.set_skip_prefix(skip);
  // Stand-in baselines carrying only the cycle counts ImprovementPct reads.
  std::vector<RunResult> cycles(sweep.cells.size());
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    if (i < skip) {
      cycles[i].total_cycles = resume_rows_[i].total_cycles;
      cycles[i].measured_cycles = resume_rows_[i].measured_cycles;
      NoteIfFailed(i, resume_rows_[i]);
    }
    specs.push_back(sweep.cells[i].spec);
  }
  runner_.set_observer(
      [this, &sweep, &cycles](std::size_t i, const RunSpec& spec, const RunResult& result) {
        cycles[i].total_cycles = result.total_cycles;
        cycles[i].measured_cycles = result.measured_cycles;
        const Sweep::Cell& cell = sweep.cells[i];
        const auto baseline = static_cast<std::size_t>(cell.baseline);
        const ResultRow row =
            MakeResultRow(bench_id_, spec, result, baseline < i ? &cycles[baseline] : nullptr,
                          cell.seed_index, spec.sim.clock_ghz, cell.variant);
        sinks_->Write(row);
        NoteIfFailed(i, row);
        Checkpoint();
      });
  std::vector<RunResult> results = runner_.Run(specs);
  runner_.set_observer(nullptr);
  return results;
}

}  // namespace numalp::report
