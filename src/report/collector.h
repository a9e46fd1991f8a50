// GridReport: the glue between a bench's declared sweep and its result
// sinks. It registers a RunObserver on the ExperimentRunner so every cell is
// captured as a ResultRow at the point of completion, in declaration order
// regardless of --jobs (the runner reports cells in ascending index order;
// DESIGN.md Section 6). Rows carry the improvement against their same-seed
// Linux-4K baseline: a sweep places each baseline before the cells compared
// against it, so the baseline's cycles are always cached by the time a
// compared cell streams.
#ifndef NUMALP_SRC_REPORT_COLLECTOR_H_
#define NUMALP_SRC_REPORT_COLLECTOR_H_

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/report/options.h"
#include "src/report/sink.h"

namespace numalp::report {

// What a bench runs: an ordered list of cells, streamed in order. A grid is
// one way to declare a stretch of it (AddGrid); AddBaseline/AddCompared
// declare the sweeps the grid cannot express.
struct Sweep {
  struct Cell {
    RunSpec spec;
    std::string variant;  // sweep-point tag recorded on the row
    // Index of the cell's Linux-4K baseline in `cells`, at most the cell's
    // own (cells stream in order); a baseline names itself (improvement 0).
    int baseline = 0;
    int seed_index = 0;
  };
  std::vector<Cell> cells;

  // Appends `base` under Linux-4K as a baseline cell, then `base` under each
  // `compared` policy against it, all tagged (variant, seed_index). Returns
  // the baseline's index, for AddCompared.
  int AddBaseline(RunSpec base, const std::string& variant, int seed_index = 0,
                  const std::vector<PolicyKind>& compared = {});
  // Appends `cell` as is, compared against the baseline at `baseline` (and
  // carrying its seed index).
  void AddCompared(const RunSpec& cell, const std::string& variant, int baseline);
  // Appends `grid`'s cells in RunGrid's order: per (machine, workload, seed)
  // the baseline, then the grid's other policies against it, untagged.
  Sweep& AddGrid(const ExperimentGrid& grid);
};

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
  // With --out-dir the sweep is checkpointed (DESIGN.md Section 12): after
  // every row both files are flushed and <bench_id>.manifest.json is
  // rewritten atomically (tmp + rename) with the done-cell count and the
  // durable byte offsets. With --resume, a manifest left by a killed run is
  // read back strictly — a malformed value, a missing key, a version other
  // than 1, another bench's id or an offset past the end of a file exits 2
  // naming the manifest — then the files are truncated to their recorded
  // offsets (dropping any torn tail), and Run skips the completed prefix of
  // cells, reading the recovered rows' cycles for the baselines among them —
  // the finished files are byte-identical to an uninterrupted run. A
  // manifest that recorded more cells than the sweep has exits 2 too. The
  // RunResult values returned for skipped cells are default-constructed;
  // resume mode regenerates the row files, not in-process summaries.
  GridReport(const Options& options, const ToolInfo& info);

  // Test/embedding constructor: writes rows to `sink` only.
  GridReport(std::unique_ptr<ResultSink> sink, std::string bench_id, int jobs = 0);

  ~GridReport();  // calls Finish()

  GridReport(const GridReport&) = delete;
  GridReport& operator=(const GridReport&) = delete;

  // Runs the sweep with streaming capture; every cell becomes one row,
  // compared against its baseline's cycles. A report runs one sweep.
  std::vector<RunResult> Run(const Sweep& sweep);

  // Flushes the sinks (markdown prints its aligned table here). Idempotent;
  // the destructor calls it.
  void Finish();

 private:
  // Flushes the file sinks and rewrites the manifest (tmp + rename); no-op
  // without --out-dir.
  void Checkpoint();
  // Reads the manifest, truncates the files to their durable offsets and
  // loads the recovered rows. A malformed or inconsistent manifest exits 2
  // through RejectManifest.
  void LoadResumeState();
  [[noreturn]] void RejectManifest(const std::string& why) const;

  std::string tool_;
  std::string bench_id_;
  std::unique_ptr<MultiSink> sinks_;
  ExperimentRunner runner_;
  bool finished_ = false;

  // Checkpoint/resume state (--out-dir only).
  bool checkpointing_ = false;
  std::string csv_path_;
  std::string jsonl_path_;
  std::string manifest_path_;
  std::unique_ptr<std::ofstream> csv_stream_;
  std::unique_ptr<std::ofstream> jsonl_stream_;
  std::size_t cells_done_ = 0;  // rows durably recorded (cumulative)
  std::vector<ResultRow> resume_rows_;  // rows recovered by --resume
};

}  // namespace numalp::report

#endif  // NUMALP_SRC_REPORT_COLLECTOR_H_
