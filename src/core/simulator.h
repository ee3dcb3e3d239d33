#ifndef LSWC_CORE_SIMULATOR_H_
#define LSWC_CORE_SIMULATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/crawl_observer.h"
#include "core/driver.h"
#include "core/frontier.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "core/virtual_web.h"
#include "core/visitor.h"
#include "obs/obs_fwd.h"
#include "util/random.h"

namespace lswc {

/// Knobs of one simulation run: the options every driver shares plus
/// the frontier, sharding and engine knobs of the paper's simulator.
struct SimulationOptions : DriverOptions {
  /// Extract links by parsing rendered HTML instead of replaying the
  /// link database (requires the web space to render kFull).
  bool parse_html = false;
  /// Hard cap on pending URLs (0 = unlimited). With a cap the simulator
  /// uses a BoundedFrontier that sheds the least-promising pending URL
  /// on overflow; shed URLs can come back only through a later, better
  /// referrer. This models a crawler with a fixed frontier budget — the
  /// alternative answer to the memory problem the limited-distance
  /// strategy solves by discarding at enqueue time.
  size_t frontier_capacity = 0;
  /// In-memory URL budget for a disk-spilling frontier (0 = keep all
  /// pending URLs in memory). Unlike frontier_capacity this is lossless:
  /// overflow URLs spill to files under `spill_dir` and stream back in
  /// order. Mutually exclusive with frontier_capacity.
  size_t frontier_memory_budget = 0;
  /// Spill-file directory for the spilling frontier. Empty = a unique
  /// per-instance subdirectory under $TMPDIR (or /tmp), removed when the
  /// frontier is destroyed.
  std::string spill_dir;
  /// Global memory budget in MiB (0 = unbudgeted). One pool sized by
  /// store::PlanMemoryBudget: half goes to the frontier's resident-URL
  /// budget — making the disk-spilling frontier the default under a
  /// budget — and a quarter to the link-database block cache (applied
  /// by drivers that open a DiskLinkDb). Explicitly set
  /// frontier_capacity / frontier_memory_budget win over the derived
  /// split; the batch regime and the sharded engine keep their full
  /// frontiers (their merges need the complete pending set) and take
  /// only the identity, which is recorded in the snapshot fingerprint.
  uint64_t memory_budget_mb = 0;
  /// LSWCDS1 dataset file this run replays, when it was opened from one
  /// (empty = generated / in-RAM graph). Identity only: recorded in the
  /// snapshot fingerprint so a resume cannot cross datasets silently.
  std::string dataset_file;
  /// Frontier regime: "" or "pop" = the paper's pop-order frontiers;
  /// "batch" = the batch-selection regime (select the top `batch_k`
  /// pending URLs by score, pop them, repeat). See FrontierOptions::kind.
  std::string frontier_kind;
  /// Batch regime: URLs selected per iteration (0 = default).
  /// Requires frontier_kind == "batch".
  uint32_t batch_k = 0;
  /// Batch regime: composite scorer spec, e.g. "lang:1.0,indegree:0.5"
  /// (empty = default). Requires frontier_kind == "batch". Scorer
  /// randomness is seeded from the graph's generator seed.
  std::string scorers;
  /// Run the crawl on the sharded engine with this many host-partitioned
  /// shards (0 = the classic serial CrawlEngine). Any value >= 1 selects
  /// ShardedCrawlEngine; its output is bit-identical for every shard
  /// count, so `shards = 1` is the reference the parallel runs must
  /// match. Incompatible with frontier_capacity / frontier_memory_budget
  /// (the cross-shard merge needs the exact global frontier contents).
  uint32_t shards = 0;
  /// Speculative visits planned per round in the sharded engine
  /// (0 = default 256). Ignored when `shards` is 0.
  uint32_t shard_batch = 0;
  /// The run's RNG stream (not owned; may be null). When set, snapshots
  /// capture it and a resume restores it, so strategies that draw
  /// randomness stay bit-deterministic across a resume.
  Rng* rng = nullptr;
};

/// Aggregate outcome of a run.
struct SimulationSummary {
  uint64_t pages_crawled = 0;    // All fetches, OK or not (paper x-axis).
  uint64_t ok_pages_crawled = 0;
  uint64_t relevant_crawled = 0;  // Ground-truth relevant pages fetched.
  size_t max_queue_size = 0;
  /// URLs shed by a capacity-bounded frontier (0 when unbounded).
  uint64_t urls_dropped = 0;
  double final_harvest_pct = 0.0;
  double final_coverage_pct = 0.0;
  ConfusionCounts classifier_confusion;
};

struct SimulationResult {
  SimulationSummary summary;
  /// harvest_pct / coverage_pct / queue_size against pages crawled.
  Series series;
};

/// The simulation driver of the paper's Fig 2: wires the virtual web
/// space, visitor, classifier, observer (strategy) and URL queue, and
/// runs the shared CrawlEngine loop over a frontier built by
/// MakeFrontier; the §3.4 metrics arrive through the engine's
/// CrawlObserver bus.
///
/// One Simulator instance runs one crawl. The frontier implementation is
/// chosen from the strategy's priority-level count (FIFO for one level,
/// bucket queue otherwise). Deduplication: a URL enters the frontier at
/// most once; a URL discarded by the strategy may be enqueued later via
/// a different referrer (that is what lets soft-focused reach 100%
/// coverage while hard-focused starves).
class Simulator {
 public:
  /// Pointers are not owned and must outlive the simulator.
  Simulator(VirtualWebSpace* web, Classifier* classifier,
            const CrawlStrategy* strategy, SimulationOptions options = {});

  /// Runs the crawl from the graph's seeds.
  StatusOr<SimulationResult> Run();

 private:
  VirtualWebSpace* web_;
  Classifier* classifier_;
  const CrawlStrategy* strategy_;
  SimulationOptions options_;
};

/// Convenience wrapper: build the standard trace-mode pipeline (in-memory
/// LinkDb, no rendering unless the classifier needs bytes) and run one
/// strategy over a graph. `render_mode` is what the classifier requires.
StatusOr<SimulationResult> RunSimulation(const WebGraph& graph,
                                         Classifier* classifier,
                                         const CrawlStrategy& strategy,
                                         RenderMode render_mode = RenderMode::kNone,
                                         SimulationOptions options = {});

}  // namespace lswc

#endif  // LSWC_CORE_SIMULATOR_H_
