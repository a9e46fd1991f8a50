// GridReport: the glue between a bench's declared sweep and its result
// sinks. It registers a RunObserver on the ExperimentRunner so every grid
// cell is captured as a ResultRow at the point of completion, in
// grid-coordinate order regardless of --jobs (the runner reports cells in
// ascending index order; DESIGN.md Section 6). Rows carry the improvement
// against their same-seed Linux-4K baseline: grid expansion places each
// baseline before its policy cells, so the baseline's cycles are always
// cached by the time a policy cell streams.
#ifndef NUMALP_SRC_REPORT_COLLECTOR_H_
#define NUMALP_SRC_REPORT_COLLECTOR_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/report/options.h"
#include "src/report/sink.h"

namespace numalp::report {

class GridReport {
 public:
  // CLI constructor: builds the stdout sink from --format plus, when
  // --out-dir was given, <out_dir>/<bench_id>.csv and .jsonl file sinks
  // (creating the directory). Prints to stderr and exits 2 on I/O errors.
  //
  // Without --resume (or when --resume recovers no rows) the two files are
  // truncated and a stale manifest is deleted: a re-run replaces the bench's
  // own rows and leaves other benches' files in the directory alone.
  //
  // With --out-dir the grid is checkpointed (DESIGN.md Section 12): after
  // every row both files are flushed and <bench_id>.manifest.json is
  // rewritten atomically (tmp + rename) with the done-cell count and the
  // durable byte offsets. With --resume, a manifest left by a killed run is
  // read back strictly — a malformed value, a missing key, a version other
  // than 1, another bench's id or an offset past the end of a file exits 2
  // naming the manifest — then the files are truncated to their recorded
  // offsets (dropping any torn tail), the completed prefix of cells is
  // skipped, and streaming
  // state (baselines, seed counters) is rebuilt from the recovered rows —
  // the finished files are byte-identical to an uninterrupted run. The
  // GridResults/RunResult values returned for skipped cells are
  // default-constructed; resume mode regenerates the row files, not
  // in-process summaries.
  GridReport(const Options& options, const ToolInfo& info);

  // Test/embedding constructor: writes rows to `sink` only.
  GridReport(std::unique_ptr<ResultSink> sink, std::string bench_id, int jobs = 0);

  ~GridReport();  // calls Finish()

  GridReport(const GridReport&) = delete;
  GridReport& operator=(const GridReport&) = delete;

  // Runs the grid(s) with streaming capture; every cell (baselines
  // included) becomes one row. Row seed_index is the cell's position on the
  // grid's seed axis.
  GridResults Run(const ExperimentGrid& grid);
  std::vector<GridResults> Run(const std::vector<ExperimentGrid>& grids);

  // Flat cell lists, for sweeps the declarative grid cannot express.
  struct CellMeta {
    std::string variant;  // sweep-point tag recorded on the row
    // Index of the cell's Linux-4K baseline within the same list; must be
    // less than the cell's own index (cells stream in order). -1 = the cell
    // is its own baseline (improvement 0).
    int baseline = -1;
    int seed_index = 0;
  };
  std::vector<RunResult> RunCells(const std::vector<RunSpec>& cells,
                                  const std::vector<CellMeta>& meta);
  // Convenience: default meta (no variant, no baseline) for every cell.
  std::vector<RunResult> RunCells(const std::vector<RunSpec>& cells);

  // Flushes the sinks (markdown prints its aligned table here). Idempotent;
  // the destructor calls it.
  void Finish();

 private:
  void EmitGridCell(const RunSpec& spec, const RunResult& result);
  // Flushes the file sinks and rewrites the manifest (tmp + rename); no-op
  // without --out-dir.
  void Checkpoint();
  // Reads the manifest, truncates the files to their durable offsets, loads
  // the recovered rows and rebuilds the grid streaming state. A malformed or
  // inconsistent manifest exits 2 with a message prefixed "tool: ".
  void LoadResumeState(const char* tool);
  // Arms the runner's skip prefix for a run over `cells_in_run` cells and
  // returns how many of them are already recovered.
  std::size_t TakeResumeSkip(std::size_t cells_in_run);

  std::string bench_id_;
  std::unique_ptr<MultiSink> sinks_;
  ExperimentRunner runner_;
  bool finished_ = false;

  // Streaming state for grid runs.
  struct BaselineCycles {
    std::uint64_t total = 0;
    std::uint64_t measured = 0;
  };
  std::map<std::string, BaselineCycles> baselines_;  // (machine|workload|seed)
  std::map<std::string, int> seen_;                  // row count per column key

  // Checkpoint/resume state (--out-dir only).
  bool checkpointing_ = false;
  std::string csv_path_;
  std::string jsonl_path_;
  std::string manifest_path_;
  std::unique_ptr<std::ofstream> csv_stream_;
  std::unique_ptr<std::ofstream> jsonl_stream_;
  std::size_t cells_done_ = 0;  // rows durably recorded (cumulative)
  std::vector<ResultRow> resume_rows_;  // rows recovered by --resume
  std::size_t resume_remaining_ = 0;    // recovered rows not yet skipped
  std::size_t resume_consumed_ = 0;     // cursor into resume_rows_
};

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_COLLECTOR_H_
