#ifndef LSWC_BENCH_BENCH_COMMON_H_
#define LSWC_BENCH_BENCH_COMMON_H_

// Shared plumbing for the figure/table reproduction harnesses. Each
// harness binary regenerates one table or figure of the paper: it runs
// the simulation(s), prints the same rows/series the paper reports,
// drops gnuplot-ready .dat files under --out-dir, and writes a
// machine-readable BENCH_<name>.json next to them (CI's perf gate
// consumes it; see EXPERIMENTS.md for the schema).
//
// Grids of independent runs go through core::ExperimentRunner: --jobs=N
// fans the cells across a thread pool, and results come back in grid
// order, so the printed rows and emitted series are bit-identical to
// the serial run (--jobs=1 is exactly the historical execution).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_runner.h"
#include "core/front_end.h"
#include "core/simulator.h"
#include "obs/telemetry_plane.h"
#include "util/bench_report.h"
#include "util/series.h"
#include "webgraph/generator.h"

namespace lswc::bench {

/// The command line every harness shares, parsed from one flag table:
/// --pages=N --seed=N --out-dir=DIR, the dataset replay, parallelism,
/// checkpoint, obs output and telemetry groups of core/front_end.h and
/// obs/telemetry_plane.h, plus --journal-dir=DIR and --only=SUBSTR. A
/// bad or unknown flag prints the reason and the usage and exits 2.
struct BenchArgs {
  /// --pages (default 1M), --seed, and the --dataset-file replay with
  /// --store=mmap|ram. The two stores produce bit-identical series —
  /// CI's out-of-core determinism gate.
  DatasetFlags dataset;
  /// --jobs and --shards. The BENCH report records the shard count, so
  /// hash comparisons across shard counts are a meaningful gate.
  ParallelFlags parallel;
  /// --checkpoint-every, --snapshot-dir and --resume=DIR: each grid
  /// cell snapshots to, and resumes from, its own <dir>/<cell>.snap.
  CheckpointFlags checkpoint;
  /// --stats-json (the same document is embedded in BENCH_<name>.json
  /// as the schema-v2 "obs" block regardless), --trace-out and
  /// --progress-every.
  ObsOutputFlags obs_out;
  /// The telemetry plane (docs/ARCHITECTURE.md "Telemetry plane").
  obs::TelemetryOptions telemetry;
  std::string out_dir = "bench_out";
  /// Write one decision journal per grid cell to
  /// DIR/<cell-name>.jrnl (empty = no journaling). The forensics
  /// counterpart of the hash gate: when two BENCH reports disagree,
  /// re-run both sides with --journal-dir and `lswc_journal diff`
  /// names the first diverging decision.
  std::string journal_dir;
  /// Run only the grid cells whose name contains this substring
  /// (empty = all cells). Lets CI gate one cell precisely — e.g. the
  /// journal overhead gate runs `--only=batch-k16` and bounds the
  /// journal's cost per record on it.
  std::string only;

  /// The worker count a runner built from these args will use.
  unsigned resolved_jobs() const;

  /// Parses flags, then configures the process-wide telemetry plane
  /// when any telemetry flag was given (endpoint bind errors are fatal,
  /// like any other bad flag).
  static BenchArgs Parse(int argc, char** argv);
};

/// Creates the binary's BENCH report with name/pages/seed/jobs
/// prefilled. Construct it before building datasets: the report's wall
/// time runs from construction to WriteReport.
BenchReport MakeReport(std::string name, const BenchArgs& args);

/// Writes <out_dir>/BENCH_<name>.json and prints the path. Also flushes
/// the binary-wide obs accumulator: --stats-json and --trace-out files
/// are written here, after every grid has contributed.
void WriteReport(const BenchArgs& args, const BenchReport& report);

/// Runner options from the flags: --jobs workers, tracing when
/// --trace-out is set, and trace tids after every earlier grid's. RunGrid
/// uses it; so do harnesses that drive ExperimentRunner directly.
ExperimentRunner::Options RunnerOptions(const BenchArgs& args);

/// Folds each result's obs bundle into the binary-wide accumulator
/// (merged registry/profiler; trace sinks kept alive for --trace-out)
/// and embeds the merged stats into `report` (may be null) as the
/// schema-v2 obs block. Call once per ExperimentRunner::Run.
void AccumulateObs(std::vector<RunResult>* results, BenchReport* report);

/// Builds the graph for one experiment, logging dataset stats.
WebGraph BuildThaiDataset(const BenchArgs& args);
WebGraph BuildJapaneseDataset(const BenchArgs& args);

/// Factory for per-run classifier instances (Judge() is stateful, so
/// every parallel run needs its own copy).
template <typename C>
ClassifierFactory ClassifierOf(Language language) {
  return [language] { return std::unique_ptr<Classifier>(new C(language)); };
}

/// One cell of a figure/table grid.
struct GridRun {
  GridRun() = default;
  GridRun(std::string name, const CrawlStrategy* strategy)
      : name(std::move(name)), strategy(strategy) {}

  /// Series/report label; empty = strategy->name().
  std::string name;
  const CrawlStrategy* strategy = nullptr;
  /// Overrides the grid's default classifier factory when set.
  ClassifierFactory classifier;
  RenderMode render_mode = RenderMode::kNone;
  SimulationOptions options;
};

/// Outcome of one grid cell, in grid order.
struct GridResult {
  std::string name;
  SimulationResult result;
  double wall_time_sec = 0.0;
  uint64_t repushed = 0;  // Better-referrer re-pushes (link bus).
  uint64_t dropped = 0;   // Links not enqueued (link bus).
};

/// Runs the grid across args.jobs workers and returns results in grid
/// order. When `print`, each cell's one-line summary (the historical
/// RunStrategy line, including the engine's link-traffic counters) is
/// printed — after all runs finish, in grid order, so the output does
/// not depend on worker scheduling. When `report`, one BenchRunEntry
/// per cell is appended.
std::vector<GridResult> RunGrid(const BenchArgs& args, const WebGraph& graph,
                                ClassifierFactory default_classifier,
                                std::vector<GridRun> runs, BenchReport* report,
                                bool print = true);

/// Prints the Table 3-style header for a dataset.
void PrintDatasetStats(const char* name, const WebGraph& graph);

/// Merges the `column` of several runs into one Series keyed by the
/// run's name, resampled onto a common x grid (the paper plots all
/// strategies on one axis). `column`: 0 harvest, 1 coverage, 2 queue.
Series MergeColumn(const std::vector<GridResult>& runs, size_t column,
                   const std::string& x_name);

/// Writes `series` to <out_dir>/<file>, creating the directory, and
/// prints the table (strided to ~20 rows) to stdout. When `report`, the
/// artifact is recorded with its row count and content hash.
void EmitSeries(const BenchArgs& args, const std::string& file,
                const Series& series, BenchReport* report = nullptr);

}  // namespace lswc::bench

#endif  // LSWC_BENCH_BENCH_COMMON_H_
