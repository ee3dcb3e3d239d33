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
#include "core/simulator.h"
#include "util/bench_report.h"
#include "util/series.h"
#include "webgraph/generator.h"

namespace lswc::bench {

/// Common command-line flags: --pages=N --seed=N --out-dir=DIR --jobs=N
/// plus the out-of-core trio --dataset-file=FILE --store=mmap|ram
/// --memory-budget-mb=N, the checkpoint/resume trio
/// --checkpoint-every=N --snapshot-dir=DIR --resume=DIR and the
/// observability trio --stats-json=FILE --trace-out=FILE
/// --progress-every=N. Unknown flags abort with a usage message.
struct BenchArgs {
  uint32_t pages = 1'000'000;
  uint64_t seed = 0;  // 0 = preset default.
  std::string out_dir = "bench_out";
  unsigned jobs = 0;  // 0 = all hardware threads; 1 = serial.
  /// Replay this LSWCDS1 dataset file instead of generating the graph
  /// (stream one with tools/lswc_dataset). --pages/--seed are ignored
  /// for the replayed dataset; its own size and seed govern.
  std::string dataset_file;
  /// Dataset backend when --dataset-file is set: "mmap" (default)
  /// serves the graph and per-run link DBs straight from one shared
  /// mapping; "ram" copies the file into heap storage up front. Both
  /// produce bit-identical series — CI's out-of-core determinism gate.
  std::string store = "mmap";
  /// Global memory budget in MiB (0 = unbudgeted). Makes the spilling
  /// frontier the default and sizes it (plus any disk link cache) from
  /// one store::PlanMemoryBudget pool.
  uint64_t memory_budget_mb = 0;
  /// Host-partitioned worker shards per simulation (0 = the serial
  /// engine). Any N produces bit-identical output; the BENCH report
  /// records the value so hash comparisons across shard counts are a
  /// meaningful determinism gate.
  unsigned shards = 0;
  /// Snapshot the full run state every N crawled pages (0 = never);
  /// requires snapshot_dir. Each grid cell writes its own rolling
  /// <snapshot_dir>/<cell-name>.snap.
  uint64_t checkpoint_every = 0;
  std::string snapshot_dir;
  /// Resume each grid cell from <resume_dir>/<cell-name>.snap when that
  /// file exists (cells without a snapshot start fresh) — the
  /// crash-recovery path: rerun the same command with --resume pointing
  /// at the snapshot directory of the killed run.
  std::string resume_dir;
  /// Write the binary-wide merged obs stats (stages + registry) to this
  /// JSON file. The same document is embedded in BENCH_<name>.json as
  /// the schema-v2 "obs" block regardless.
  std::string stats_json;
  /// Write a Chrome trace-event file (chrome://tracing / Perfetto) with
  /// one track per grid run. Opt-in: tracing buffers events in memory.
  std::string trace_out;
  /// Print a per-run progress line to stderr every N crawled pages.
  /// The line is rendered from the published telemetry snapshot, so it
  /// always agrees with the live endpoint's progress document.
  uint64_t progress_every = 0;
  /// Serve the live status endpoint here ("unix:<path>" or
  /// "tcp:[host:]port"; empty = no endpoint). See docs/ARCHITECTURE.md
  /// "Telemetry plane".
  std::string telemetry;
  /// Abort-free stall watchdog deadline in seconds (0 = off): when no
  /// fetch completes for this long, dump the flight recorder plus
  /// per-shard attribution to --telemetry-dump (or stderr).
  uint64_t watchdog_secs = 0;
  /// abort() when the watchdog fires, so CI turns hangs into failures.
  bool watchdog_abort = false;
  /// Per-run flight-recorder ring capacity (events; 0 disables the
  /// recorder and the SIGSEGV/SIGABRT crash dump).
  uint64_t flight_recorder_events = 1024;
  /// Watchdog / crash dump file (empty = stderr).
  std::string telemetry_dump;
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

/// Configures the process-wide obs::TelemetryPlane from the telemetry
/// flags (endpoint server, stall watchdog, flight recorder + crash
/// handler) by delegating to obs::ConfigureTelemetryPlaneFromFlags; a
/// no-op when no telemetry flag was given. BenchArgs::Parse calls this
/// itself; standalone tools with their own flag parsing (lswc_sim,
/// lswc_dataset) call the obs helper directly. Bind failures are fatal
/// (exit 2). When an endpoint was bound, its resolved address is
/// printed to stderr as "TELEMETRY <endpoint>" so scripts can attach
/// to tcp:0.
void ConfigureTelemetryPlane(const BenchArgs& args, const char* argv0);

/// Creates the binary's BENCH report with name/pages/seed/jobs
/// prefilled. Construct it before building datasets: the report's wall
/// time runs from construction to WriteReport.
BenchReport MakeReport(std::string name, const BenchArgs& args);

/// Writes <out_dir>/BENCH_<name>.json and prints the path. Also flushes
/// the binary-wide obs accumulator: --stats-json and --trace-out files
/// are written here, after every grid has contributed.
void WriteReport(const BenchArgs& args, const BenchReport& report);

/// Applies the obs flags to runner options (trace on/off, tid
/// numbering). RunGrid does this itself; harnesses that drive
/// ExperimentRunner directly call it before constructing the runner.
void ConfigureObs(const BenchArgs& args, ExperimentRunner::Options* options);

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
Series MergeColumn(const std::vector<std::pair<std::string,
                                               const SimulationResult*>>& runs,
                   size_t column, const std::string& x_name);
Series MergeColumn(const std::vector<GridResult>& runs, size_t column,
                   const std::string& x_name);

/// Writes `series` to <out_dir>/<file>, creating the directory, and
/// prints the table (strided to ~20 rows) to stdout. When `report`, the
/// artifact is recorded with its row count and content hash.
void EmitSeries(const BenchArgs& args, const std::string& file,
                const Series& series, BenchReport* report = nullptr);

}  // namespace lswc::bench

#endif  // LSWC_BENCH_BENCH_COMMON_H_
