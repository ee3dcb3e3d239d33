#ifndef LSWC_PERFBENCH_WORKLOAD_H_
#define LSWC_PERFBENCH_WORKLOAD_H_

// The benchmark's workloads: how each one sets up its dataset and which
// crawl cells it runs on it, plus the cell runner. Untraced cells run
// through the program's own Simulator; traced cells run on an engine the
// benchmark assembles itself, so that its ports can be decorated.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/virtual_web.h"
#include "layers.h"
#include "obs/obs_fwd.h"
#include "store/stored_web_graph.h"
#include "util/status.h"
#include "webgraph/graph.h"

namespace lswc::bench {

/// The cell whose fetch order the traced run replays, and whose closure
/// (layer sum vs crawl time) it reports. Every workload runs it.
inline constexpr char kClosureCell[] = "soft";

struct WorkloadSpec {
  std::string name;
  std::string dataset;  // "thai" | "japanese"
  uint32_t pages = 0;
  /// Stream the dataset to an LSWCDS1 file and replay it through the
  /// mmap store, instead of generating it in RAM.
  bool to_file = false;
  std::string classifier;  // "meta" | "detector"
  RenderMode render = RenderMode::kNone;
  bool parse_html = false;
  uint32_t shards = 0;  // 0 = serial engine.
  std::string frontier_kind;  // "" = pop order, "batch".
  uint32_t batch_k = 0;
  std::string scorers;
  uint64_t max_pages = 0;
  uint64_t memory_budget_mb = 0;
  bool journal = false;
  uint64_t checkpoint_every = 0;
  /// One crawl each, named by its strategy as lswc_sim spells it (bfs,
  /// hard, soft, plimited:N).
  std::vector<std::string> cells;
};

/// Unknown names fail.
StatusOr<WorkloadSpec> MakeWorkload(const std::string& name);

/// A generated (or streamed and opened) dataset.
struct Dataset {
  WebGraph graph;
  std::unique_ptr<store::StoredWebGraph> stored;  // Set when to_file.
  std::string file;                               // LSWCDS1 path or "".
  double generate_s = 0.0;  // In-RAM generation or streaming to file.
  double open_s = 0.0;      // StoredWebGraph::Open (to_file only).
  /// Share of the file's pages in the page cache just before it was
  /// opened (-1 = no file).
  double cache_resident_frac = -1.0;
};

/// Builds the workload's dataset from `seed`; files go under `workdir`.
StatusOr<std::unique_ptr<Dataset>> SetUpDataset(const WorkloadSpec& spec,
                                                uint64_t seed,
                                                const std::string& workdir);

/// The observable result of one cell: what the output check compares.
struct CellOutcome {
  uint64_t series_hash = 0;
  uint64_t pages = 0;
  uint64_t relevant = 0;
  double harvest_pct = 0.0;
  double coverage_pct = 0.0;

  bool operator==(const CellOutcome&) const = default;
};

/// Layer spans of one traced cell.
struct CellTrace {
  JudgeSpans judge;
  Span onlink;
  uint64_t enqueued = 0;
  Span linkdb;
  uint64_t links = 0;
  FrontierSpans frontier;  // Empty on the sharded engine.
  Span checkpoint;
  uint64_t scored_urls = 0;    // frontier.scored_urls (batch regime).
  uint64_t selected_urls = 0;  // frontier.selected_urls (batch regime).
  uint64_t rescore_rounds = 0;
  /// Filled for the closure cell only.
  std::vector<PageId> fetch_order;
  std::string journal_path;  // Kept for the journal replay, if any.
  double snapshot_save_ms = 0.0;
  double snapshot_restore_ms = 0.0;
  uint64_t snapshot_bytes = 0;
  bool snapshot_roundtrip_ok = true;
};

struct CellRun {
  Status status = Status::OK();
  CellOutcome outcome;
  /// From the start of the cell's assembly (classifier, strategy, link
  /// DB, journal, engine, frontier) to its first fetch event.
  double construct_s = 0.0;
  /// From the first fetch event to the end of the crawl, journal
  /// finalization included.
  double crawl_s = 0.0;
};

/// Runs `cell` through the program's Simulator, as lswc_sim would with
/// the workload's flags. `obs` (may be null) enables the in-program obs
/// bundle, StageProfiler included.
CellRun RunCell(const WorkloadSpec& spec, const std::string& cell,
                const Dataset& dataset, const std::string& workdir,
                obs::RunObs* obs = nullptr);

/// Runs `cell` on an engine assembled from the public constructors, with
/// every port decorated, and fills `trace`. The closure cell also records
/// its fetch order, keeps its journal, and saves + restores a snapshot
/// at the end.
CellRun RunTracedCell(const WorkloadSpec& spec, const std::string& cell,
                      const Dataset& dataset, const std::string& workdir,
                      CellTrace* trace);

}  // namespace lswc::bench

#endif  // LSWC_PERFBENCH_WORKLOAD_H_
