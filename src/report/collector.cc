#include "src/report/collector.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>

#include "src/report/aggregate.h"
#include "src/report/result_row.h"

namespace numalp::report {

namespace {

// A stand-in baseline carrying only the cycle counts ImprovementPct reads.
RunResult CyclesOnly(std::uint64_t total, std::uint64_t measured) {
  RunResult result;
  result.total_cycles = total;
  result.measured_cycles = measured;
  return result;
}

}  // namespace

GridReport::GridReport(const Options& options, const ToolInfo& info)
    : bench_id_(info.bench_id), sinks_(std::make_unique<MultiSink>()),
      runner_(options.jobs) {
  if (options.cell_deadline_ms >= 0) {
    runner_.set_cell_deadline_ms(options.cell_deadline_ms);
  }
  if (options.cell_retries >= 0) {
    runner_.set_max_cell_retries(options.cell_retries);
  }
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
      LoadResumeState(info.name);
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

void GridReport::LoadResumeState(const char* tool) {
  std::ifstream manifest(manifest_path_);
  if (!manifest) {
    return;  // no manifest: nothing recorded, run from scratch
  }
  const auto reject = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s: %s\n", tool, manifest_path_.c_str(), why.c_str());
    std::exit(2);
  };
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
    reject(error);
  }
  for (const char* key : {"version", "bench", "cells_done", "csv_bytes", "jsonl_bytes"}) {
    if (!seen[key]) {
      reject(std::string("missing \"") + key + "\"");
    }
  }
  if (numbers["version"] != 1) {
    reject("bad value for \"version\": " + std::to_string(numbers["version"]));
  }
  if (bench != bench_id_) {
    reject("bench \"" + bench + "\" is not this bench (\"" + bench_id_ + "\")");
  }
  // Flushes precede the manifest's rename, so offsets past the end of a
  // file mean the manifest and the data disagree.
  for (const auto& [key, path] :
       {std::pair{"csv_bytes", csv_path_}, std::pair{"jsonl_bytes", jsonl_path_}}) {
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (numbers[key] > (ec ? 0 : size)) {
      reject("\"" + std::string(key) + "\": " + std::to_string(numbers[key]) +
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
    reject("cannot truncate to the recorded offsets: " + ec.message());
  }
  resume_rows_ = LoadJsonlFile(jsonl_path_, nullptr);
  if (resume_rows_.size() > cells_done) {
    resume_rows_.resize(cells_done);
  }
  cells_done_ = resume_rows_.size();
  resume_remaining_ = resume_rows_.size();
  // Rebuild the streaming state EmitGridCell accumulated over the recovered
  // grid rows (RunCells rows carry a variant tag and keep their own
  // positional state, rebuilt per call from resume_rows_).
  for (const ResultRow& row : resume_rows_) {
    if (!row.variant.empty()) {
      continue;
    }
    const std::string base_key =
        row.machine + "|" + row.workload + "|" + std::to_string(row.seed);
    if (row.policy == "Linux-4K") {
      baselines_[base_key] = BaselineCycles{row.total_cycles, row.measured_cycles};
    }
    seen_[row.machine + "|" + row.workload + "|" + row.policy]++;
  }
}

std::size_t GridReport::TakeResumeSkip(std::size_t cells_in_run) {
  const std::size_t skip = std::min(resume_remaining_, cells_in_run);
  resume_remaining_ -= skip;
  runner_.set_skip_prefix(skip);
  return skip;
}

namespace {

// Cells a declarative grid expands to (runner.cc ExpandGrid): one baseline
// per (machine, workload, seed) plus one cell per non-Linux-4K policy.
std::size_t GridCellCount(const ExperimentGrid& grid) {
  std::size_t extra = 0;
  for (const PolicyKind kind : grid.policies) {
    if (kind != PolicyKind::kLinux4K) {
      ++extra;
    }
  }
  return grid.machines.size() * grid.workloads.size() *
         static_cast<std::size_t>(grid.num_seeds) * (1 + extra);
}

}  // namespace

void GridReport::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  sinks_->Finish();
}

// Grid cells carry their coordinates in the RunSpec itself: the machine,
// workload and policy name the column, the seed names the axis position
// (rows of one column stream in ascending seed order, so the column's row
// count is the seed index), and a kLinux4K cell is by construction the
// (machine, workload, seed) baseline of everything that follows it.
void GridReport::EmitGridCell(const RunSpec& spec, const RunResult& result) {
  const std::string base_key =
      result.machine + "|" + result.workload + "|" + std::to_string(spec.sim.seed);
  ResultRow row;
  if (result.policy == PolicyKind::kLinux4K) {
    baselines_[base_key] = BaselineCycles{result.total_cycles, result.measured_cycles};
    row = MakeResultRow(bench_id_, spec, result, nullptr, 0, spec.sim.clock_ghz);
  } else {
    const auto it = baselines_.find(base_key);
    const RunResult baseline =
        it != baselines_.end() ? CyclesOnly(it->second.total, it->second.measured)
                               : RunResult{};
    row = MakeResultRow(bench_id_, spec, result, it != baselines_.end() ? &baseline : nullptr,
                        0, spec.sim.clock_ghz);
  }
  const std::string column_key =
      result.machine + "|" + result.workload + "|" + row.policy;
  row.seed_index = seen_[column_key]++;
  sinks_->Write(row);
  Checkpoint();
}

GridResults GridReport::Run(const ExperimentGrid& grid) {
  resume_consumed_ += TakeResumeSkip(GridCellCount(grid));
  runner_.set_observer([this](std::size_t, const RunSpec& spec, const RunResult& result) {
    EmitGridCell(spec, result);
  });
  GridResults results = RunGrid(grid, runner_);
  runner_.set_observer(nullptr);
  return results;
}

std::vector<GridResults> GridReport::Run(const std::vector<ExperimentGrid>& grids) {
  std::size_t total = 0;
  for (const ExperimentGrid& grid : grids) {
    total += GridCellCount(grid);
  }
  resume_consumed_ += TakeResumeSkip(total);
  runner_.set_observer([this](std::size_t, const RunSpec& spec, const RunResult& result) {
    EmitGridCell(spec, result);
  });
  std::vector<GridResults> results = RunGrids(grids, runner_);
  runner_.set_observer(nullptr);
  return results;
}

std::vector<RunResult> GridReport::RunCells(const std::vector<RunSpec>& cells,
                                            const std::vector<CellMeta>& meta) {
  // Cells stream in index order, so each cell's baseline (a lower index) has
  // already been recorded here when the cell's row is built. On resume the
  // skipped prefix's cycle counts come from the recovered rows (one row per
  // cell, positionally), so a surviving cell whose baseline was recovered
  // still reports the exact improvement.
  const std::size_t skip = TakeResumeSkip(cells.size());
  std::vector<BaselineCycles> emitted(cells.size());
  for (std::size_t i = 0; i < skip; ++i) {
    const ResultRow& row = resume_rows_[resume_consumed_ + i];
    emitted[i] = BaselineCycles{row.total_cycles, row.measured_cycles};
  }
  resume_consumed_ += skip;
  runner_.set_observer(
      [this, &meta, &emitted](std::size_t i, const RunSpec& spec, const RunResult& result) {
        emitted[i] = BaselineCycles{result.total_cycles, result.measured_cycles};
        const CellMeta& cell_meta = i < meta.size() ? meta[i] : CellMeta{};
        RunResult baseline;
        const bool has_baseline =
            cell_meta.baseline >= 0 && static_cast<std::size_t>(cell_meta.baseline) < i;
        if (has_baseline) {
          const BaselineCycles& cycles = emitted[static_cast<std::size_t>(cell_meta.baseline)];
          baseline = CyclesOnly(cycles.total, cycles.measured);
        }
        sinks_->Write(MakeResultRow(bench_id_, spec, result,
                                    has_baseline ? &baseline : nullptr, cell_meta.seed_index,
                                    spec.sim.clock_ghz, cell_meta.variant));
        Checkpoint();
      });
  std::vector<RunResult> results = runner_.Run(cells);
  runner_.set_observer(nullptr);
  return results;
}

std::vector<RunResult> GridReport::RunCells(const std::vector<RunSpec>& cells) {
  return RunCells(cells, std::vector<CellMeta>(cells.size()));
}

}  // namespace numalp::report
