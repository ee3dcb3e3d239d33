#ifndef LSWC_CORE_FRONTIER_FACTORY_H_
#define LSWC_CORE_FRONTIER_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/batch_frontier.h"
#include "core/frontier.h"
#include "core/shard.h"
#include "core/spilling_frontier.h"
#include "core/strategy.h"
#include "util/status.h"

namespace lswc {

/// Frontier sizing knobs, shared by every driver that builds a frontier
/// from user options (SimulationOptions carries the same fields).
struct FrontierOptions {
  /// Frontier regime: "" or "pop" = the paper's pop-order frontiers
  /// (FIFO/bucket/bounded/spilling, chosen by the knobs below);
  /// "batch" = the batch-selection regime (BatchFrontier + scorers).
  std::string kind;
  /// Hard cap on pending URLs (0 = unlimited): BoundedFrontier.
  /// Pop-order only.
  size_t capacity = 0;
  /// In-memory URL budget for a disk-spilling frontier (0 = keep all
  /// pending URLs in memory): SpillingFrontier. Mutually exclusive with
  /// `capacity`. Pop-order only.
  size_t memory_budget = 0;
  /// Directory for spill files when `memory_budget` is set. Empty = a
  /// unique per-instance subdirectory under $TMPDIR (or /tmp), removed
  /// when the frontier is destroyed.
  std::string spill_dir;
  /// Batch regime: URLs selected per iteration (0 = default
  /// kDefaultBatchK). Requires kind == "batch".
  uint32_t batch_k = 0;
  /// Batch regime: composite scorer spec ("lang:1.0,indegree:0.5";
  /// empty = kDefaultScorerSpec). Requires kind == "batch".
  std::string scorers;
  /// Batch regime: seed for deterministic pseudo-random scorers.
  uint64_t scorer_seed = 0;
  /// Batch regime: graph the static-feature scorers read from (not
  /// owned; must outlive the frontier).
  const WebGraph* graph = nullptr;
};

/// A constructed frontier plus typed views onto its optional diagnostic
/// surfaces (drop counts, spill counters, batch knobs). At most one of
/// the raw pointers is non-null, matching the implementation chosen;
/// all are null for the plain FIFO/bucket frontiers.
struct FrontierSelection {
  std::unique_ptr<Frontier> frontier;
  BoundedFrontier* bounded = nullptr;
  SpillingFrontier* spilling = nullptr;
  BatchFrontier* batch = nullptr;
};

/// Centralizes the frontier choice every crawl driver used to inline:
///
///   - kind "batch"         -> batch-selection frontier with a composite
///                             scorer built from `scorers`,
///   - `memory_budget` set  -> disk-spilling bucket queue (lossless),
///   - `capacity` set       -> capacity-bounded bucket queue (shedding),
///   - single-level strategy-> FIFO,
///   - otherwise            -> bucket queue with the strategy's levels.
///
/// Fails with InvalidArgument on incompatible combinations, each error
/// naming the exact conflicting option: both budgets set; batch knobs
/// (`batch_k`, `scorers`) without kind "batch"; kind "batch" with a
/// `capacity` or `memory_budget`; an unknown kind; a bad scorer spec.
StatusOr<FrontierSelection> MakeFrontier(const CrawlStrategy& strategy,
                                         const FrontierOptions& options);

/// Batch-regime construction path for the sharded engine: `num_shards`
/// BatchFrontier pending slices sharing ONE composite scorer instance
/// (scorers are pure and thread-safe; sharing keeps e.g. the indegree
/// precomputation single). Same option validation as MakeFrontier with
/// kind "batch".
StatusOr<std::vector<std::unique_ptr<BatchFrontier>>> MakeBatchFrontiers(
    const FrontierOptions& options, uint32_t num_shards);

/// Per-shard construction path for the sharded engine's pop-order
/// regime: `num_shards` sequence-tagged frontier slices with the
/// strategy's level count. Sharding keeps every pending URL (the merge
/// contract needs the exact global frontier contents), so the bounded
/// and spilling variants are not available — a set `capacity` or
/// `memory_budget` fails with an InvalidArgument naming the conflicting
/// option, as does kind "batch" (use MakeBatchFrontiers).
StatusOr<std::vector<std::unique_ptr<ShardFrontier>>> MakeShardFrontiers(
    const CrawlStrategy& strategy, const FrontierOptions& options,
    uint32_t num_shards);

}  // namespace lswc

#endif  // LSWC_CORE_FRONTIER_FACTORY_H_
