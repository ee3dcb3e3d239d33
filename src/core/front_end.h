#ifndef LSWC_CORE_FRONT_END_H_
#define LSWC_CORE_FRONT_END_H_

// What the command-line front ends (lswc_sim, lswc_dataset and the bench
// harnesses) share. The flags more than one of them accepts are declared
// here once, as groups of FlagTable entries (the telemetry group lives
// with the telemetry plane). So are the steps each front end takes
// around its runs: where a run resumes from, the path and journal it
// writes, and the obs files written once every run is done.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulator.h"
#include "obs/obs_fwd.h"
#include "util/flags.h"
#include "util/status.h"
#include "webgraph/generator.h"

namespace lswc {

/// The dataset a front end crawls: a generated preset, or an LSWCDS1
/// file replayed through one of the store backends.
struct DatasetFlags {
  /// --dataset: the generator preset, "thai" or "japanese".
  std::string preset = "thai";
  /// --pages: the generated dataset's size.
  uint32_t pages = 1'000'000;
  /// --seed: the generator seed (0 = the preset's own).
  uint64_t seed = 0;
  /// --dataset-file: replay this LSWCDS1 file instead of generating;
  /// its own size and seed then govern.
  std::string dataset_file{};
  /// --store: the replay backend. "mmap" serves the graph and every
  /// run's links from one shared mapping, "ram" copies the file to the
  /// heap, "disk" keeps the graph on the heap and reads links through
  /// DiskLinkDb's block cache.
  std::string store = "mmap";
  /// --memory-budget-mb: one pool in MiB (0 = unbudgeted) that sizes
  /// the spilling frontier and the disk link cache.
  uint64_t memory_budget_mb = 0;

  /// The generator options of `preset` at --pages, with --seed applied.
  SyntheticWebOptions GeneratorOptions(std::string_view preset) const;
};

/// --jobs and --shards.
struct ParallelFlags {
  /// Worker threads for a grid or list of runs (0 = every hardware
  /// thread).
  unsigned jobs = 0;
  /// Host-partitioned shards per run (0 = the serial engine). Output is
  /// byte-identical for every value.
  uint32_t shards = 0;
};

/// The checkpoint/resume flags.
struct CheckpointFlags {
  /// --checkpoint-every: snapshot a run every N crawled pages (0 =
  /// never) to the rolling <snapshot_dir>/<run>.snap.
  uint64_t every = 0;
  std::string snapshot_dir{};
  /// --resume: a directory of <run>.snap files (runs without one start
  /// fresh) or, where `resume_file` allows it, one snapshot file.
  std::string resume{};
  bool resume_file = false;
};

/// The obs output flags.
struct ObsOutputFlags {
  /// --stats-json: the merged stage timings and registry as JSON.
  std::string stats_json;
  /// --trace-out: a Chrome trace-event file, one track per run.
  std::string trace_out;
  /// --progress-every: a progress line to stderr every N crawled pages.
  uint64_t progress_every = 0;
};

/// --pages and --seed, plus --dataset when `with_preset`.
void AddGeneratorFlags(FlagTable* table, DatasetFlags* flags,
                       bool with_preset);
/// --dataset-file, --store (mmap|ram, and disk when `with_disk`) and
/// --memory-budget-mb.
void AddReplayFlags(FlagTable* table, DatasetFlags* flags, bool with_disk);
void AddParallelFlags(FlagTable* table, ParallelFlags* flags);
/// --checkpoint-every, --snapshot-dir and --resume; refuses a
/// checkpoint interval without a snapshot directory.
void AddCheckpointFlags(FlagTable* table, CheckpointFlags* flags);
void AddObsOutputFlags(FlagTable* table, ObsOutputFlags* flags);

/// The snapshot the run `run_name` resumes from: <resume>/<run>.snap
/// when --resume is a directory holding one, --resume itself when it is
/// not a directory and `resume_file` is set, else "" (a fresh start).
std::string ResumePathFor(const CheckpointFlags& flags,
                          const std::string& run_name);

/// `path` for one of `runs` runs: verbatim for a single run, else with
/// the run's sanitized name before the extension ("run.dat" ->
/// "run.plimited-2.dat").
std::string RunPath(const std::string& path, const std::string& run_name,
                    size_t runs);

/// Opens a decision journal at `path`. Its header names the graph, the
/// strategy and classifier, the regime ("politeness" when `politeness`,
/// else pop or batch from `options`) and the resolved batch identity,
/// so two journals compare equal iff their crawls were configured
/// equal. Records look hosts up in `graph`, which must outlive it.
StatusOr<std::unique_ptr<obs::JournalWriter>> OpenRunJournal(
    const std::string& path, const WebGraph& graph,
    const std::string& strategy, const std::string& classifier,
    const SimulationOptions& options, bool politeness = false);

/// Writes --stats-json from `merged` and --trace-out from `sinks` and
/// prints each path written. A file left unwritten because obs is
/// disabled is a warning; a file that cannot be written is the error.
Status WriteObsOutputs(const ObsOutputFlags& flags, const obs::RunObs& merged,
                       const std::vector<const obs::TraceSink*>& sinks);

}  // namespace lswc

#endif  // LSWC_CORE_FRONT_END_H_
