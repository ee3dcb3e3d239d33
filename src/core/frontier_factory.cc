#include "core/frontier_factory.h"

#include <algorithm>

#include "core/scorer.h"

namespace lswc {

namespace {

bool IsBatchKind(const FrontierOptions& options) {
  return options.kind == "batch";
}

/// Cross-field validation shared by every construction path; each error
/// names the exact conflicting option.
Status ValidateOptions(const FrontierOptions& options) {
  if (!options.kind.empty() && options.kind != "pop" &&
      options.kind != "batch") {
    return Status::InvalidArgument("unknown frontier kind '" + options.kind +
                                   "'; expected 'pop' or 'batch'");
  }
  if (!IsBatchKind(options)) {
    if (options.batch_k > 0) {
      return Status::InvalidArgument(
          "batch_k (=" + std::to_string(options.batch_k) +
          ") requires the batch frontier (frontier kind 'batch'), not '" +
          (options.kind.empty() ? "pop" : options.kind) + "'");
    }
    if (!options.scorers.empty()) {
      return Status::InvalidArgument(
          "scorers ('" + options.scorers +
          "') require the batch frontier (frontier kind 'batch'), not '" +
          (options.kind.empty() ? "pop" : options.kind) + "'");
    }
    if (options.capacity > 0 && options.memory_budget > 0) {
      return Status::InvalidArgument(
          "frontier_capacity (=" + std::to_string(options.capacity) +
          ") and frontier_memory_budget (=" +
          std::to_string(options.memory_budget) +
          ") are mutually exclusive: a frontier is either capacity-bounded "
          "or disk-spilling, not both");
    }
    return Status::OK();
  }
  if (options.capacity > 0) {
    return Status::InvalidArgument(
        "frontier_capacity (=" + std::to_string(options.capacity) +
        ") is incompatible with the batch frontier: batch selection "
        "ranks the complete pending set and never sheds URLs");
  }
  if (options.memory_budget > 0) {
    return Status::InvalidArgument(
        "frontier_memory_budget (=" + std::to_string(options.memory_budget) +
        ") is incompatible with the batch frontier: the pending set must "
        "stay in memory for ranking");
  }
  if (options.graph == nullptr) {
    return Status::InvalidArgument(
        "the batch frontier needs a web graph for its scorers");
  }
  return Status::OK();
}

/// Builds the (shared) composite scorer of a batch frontier.
StatusOr<std::shared_ptr<const Scorer>> MakeBatchScorer(
    const FrontierOptions& options) {
  ScorerEnv env;
  env.graph = options.graph;
  env.seed = options.scorer_seed;
  const std::string& spec =
      options.scorers.empty() ? kDefaultScorerSpec : options.scorers;
  auto scorer = MakeCompositeScorer(spec, env);
  if (!scorer.ok()) return scorer.status();
  return std::shared_ptr<const Scorer>(std::move(scorer).value());
}

}  // namespace

StatusOr<FrontierSelection> MakeFrontier(const CrawlStrategy& strategy,
                                         const FrontierOptions& options) {
  LSWC_RETURN_IF_ERROR(ValidateOptions(options));
  FrontierSelection selection;
  if (IsBatchKind(options)) {
    auto scorer = MakeBatchScorer(options);
    if (!scorer.ok()) return scorer.status();
    auto b = std::make_unique<BatchFrontier>(options.batch_k,
                                             std::move(scorer).value());
    selection.batch = b.get();
    selection.frontier = std::move(b);
    return selection;
  }
  const int levels = std::max(1, strategy.num_priority_levels());
  if (options.memory_budget > 0) {
    SpillingFrontier::Options spill;
    spill.memory_budget = options.memory_budget;
    spill.chunk = std::min<size_t>(4096, spill.memory_budget / 2);
    spill.spill_dir = options.spill_dir;
    auto f = SpillingFrontier::Create(levels, spill);
    if (!f.ok()) return f.status();
    selection.spilling = f->get();
    selection.frontier = std::move(f).value();
  } else if (options.capacity > 0) {
    auto b = std::make_unique<BoundedFrontier>(levels, options.capacity);
    selection.bounded = b.get();
    selection.frontier = std::move(b);
  } else if (levels <= 1) {
    selection.frontier = std::make_unique<FifoFrontier>();
  } else {
    selection.frontier = std::make_unique<BucketFrontier>(levels);
  }
  return selection;
}

StatusOr<std::vector<std::unique_ptr<BatchFrontier>>> MakeBatchFrontiers(
    const FrontierOptions& options, uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument(
        "MakeBatchFrontiers needs at least one shard");
  }
  if (!IsBatchKind(options)) {
    return Status::InvalidArgument(
        "MakeBatchFrontiers requires frontier kind 'batch', got '" +
        options.kind + "'");
  }
  LSWC_RETURN_IF_ERROR(ValidateOptions(options));
  auto scorer = MakeBatchScorer(options);
  if (!scorer.ok()) return scorer.status();
  std::vector<std::unique_ptr<BatchFrontier>> shards;
  shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards.push_back(
        std::make_unique<BatchFrontier>(options.batch_k, scorer.value()));
  }
  return shards;
}

StatusOr<std::vector<std::unique_ptr<ShardFrontier>>> MakeShardFrontiers(
    const CrawlStrategy& strategy, const FrontierOptions& options,
    uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument(
        "MakeShardFrontiers needs at least one shard");
  }
  if (IsBatchKind(options)) {
    return Status::InvalidArgument(
        "frontier kind 'batch' has its own per-shard construction path "
        "(MakeBatchFrontiers); MakeShardFrontiers builds pop-order slices");
  }
  LSWC_RETURN_IF_ERROR(ValidateOptions(options));
  if (options.capacity > 0) {
    return Status::InvalidArgument(
        "frontier_capacity (=" + std::to_string(options.capacity) +
        ") is incompatible with sharded crawling: the cross-shard merge "
        "needs the exact global frontier contents, and a capacity-bounded "
        "frontier sheds URLs");
  }
  if (options.memory_budget > 0) {
    return Status::InvalidArgument(
        "frontier_memory_budget (=" + std::to_string(options.memory_budget) +
        ") is incompatible with sharded crawling: the disk-spilling "
        "frontier has no per-shard slice layout");
  }
  const int levels = std::max(1, strategy.num_priority_levels());
  std::vector<std::unique_ptr<ShardFrontier>> shards;
  shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards.push_back(std::make_unique<ShardFrontier>(levels));
  }
  return shards;
}

}  // namespace lswc
