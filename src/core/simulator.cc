#include "core/simulator.h"

#include <utility>

#include "core/crawl_engine.h"
#include "core/frontier_factory.h"
#include "core/sharded_engine.h"
#include "obs/run_obs.h"
#include "store/memory_budget.h"

namespace lswc {

namespace {

/// Applies a global memory budget to the frontier knobs: under a budget
/// the spilling frontier becomes the default, sized to the plan's
/// frontier share. Explicit frontier settings and the regimes that need
/// the complete pending set in memory (batch, sharded) are left alone.
void ApplyMemoryBudget(const SimulationOptions& options,
                       FrontierOptions* frontier) {
  if (options.memory_budget_mb == 0) return;
  if (options.shards != 0 || options.frontier_kind == "batch") return;
  if (options.frontier_capacity != 0 || options.frontier_memory_budget != 0) {
    return;
  }
  const store::MemoryBudgetPlan plan =
      store::PlanMemoryBudget(options.memory_budget_mb);
  frontier->memory_budget = plan.frontier_urls;
}

SimulationResult MakeResult(const MetricsRecorder& metrics,
                            size_t max_queue_size, uint64_t urls_dropped) {
  SimulationResult result{SimulationSummary{}, metrics.series()};
  result.summary.pages_crawled = metrics.pages_crawled();
  result.summary.ok_pages_crawled = metrics.confusion().total();
  result.summary.relevant_crawled = metrics.relevant_crawled();
  result.summary.max_queue_size = max_queue_size;
  result.summary.urls_dropped = urls_dropped;
  result.summary.final_harvest_pct = metrics.harvest_pct();
  result.summary.final_coverage_pct = metrics.coverage_pct();
  result.summary.classifier_confusion = metrics.confusion();
  return result;
}

}  // namespace

BatchIdentity ResolveBatchIdentity(const SimulationOptions& options) {
  if (options.frontier_kind != "batch") return {};
  return {options.batch_k == 0 ? kDefaultBatchK : options.batch_k,
          options.scorers.empty() ? kDefaultScorerSpec : options.scorers};
}

Simulator::Simulator(VirtualWebSpace* web, Classifier* classifier,
                     const CrawlStrategy* strategy,
                     SimulationOptions options)
    : web_(web),
      classifier_(classifier),
      strategy_(strategy),
      options_(options) {}

StatusOr<SimulationResult> Simulator::Run() {
  FrontierOptions frontier_options;
  frontier_options.kind = options_.frontier_kind;
  frontier_options.capacity = options_.frontier_capacity;
  frontier_options.memory_budget = options_.frontier_memory_budget;
  frontier_options.spill_dir = options_.spill_dir;
  frontier_options.batch_k = options_.batch_k;
  frontier_options.scorers = options_.scorers;
  frontier_options.scorer_seed = web_->graph().generator_seed();
  frontier_options.graph = &web_->graph();
  ApplyMemoryBudget(options_, &frontier_options);

  obs::RunObs* obs = options_.enabled_obs();
  ShardedEngineOptions engine_options;
  engine_options.max_pages = options_.max_pages;
  engine_options.sample_interval = options_.sample_interval;
  engine_options.parse_html = options_.parse_html;
  engine_options.obs = obs;
  engine_options.journal = options_.journal;
  BatchIdentity batch = ResolveBatchIdentity(options_);
  engine_options.batch_k = batch.batch_k;
  engine_options.scorer_spec = std::move(batch.scorer_spec);
  engine_options.dataset_file = options_.dataset_file;
  engine_options.memory_budget_mb = options_.memory_budget_mb;
  engine_options.num_shards = options_.shards;
  engine_options.batch_size = options_.shard_batch;

  if (options_.shards >= 1) {
    auto created = ShardedCrawlEngine::Create(web_, classifier_, strategy_,
                                              frontier_options, engine_options);
    if (!created.ok()) return created.status();
    ShardedCrawlEngine& sharded = **created;
    sharded.engine().AttachRng(options_.rng);
    LSWC_RETURN_IF_ERROR(RunEngine(
        &sharded.engine(), options_, "crawl",
        [&sharded](std::vector<obs::ShardState>* out) {
          sharded.AppendShardStates(out);
        }));
    return MakeResult(sharded.metrics(), sharded.max_frontier_size(), 0);
  }

  auto selection = MakeFrontier(*strategy_, frontier_options);
  if (!selection.ok()) return selection.status();
  FrontierPopScheduler scheduler(selection->frontier.get());
  CrawlEngine engine(web_, classifier_, strategy_, &scheduler,
                     engine_options);
  engine.AttachRng(options_.rng);
  if (selection->batch != nullptr) {
    selection->batch->set_journal(options_.journal);
  }
  if (obs != nullptr) {
    selection->frontier->AttachObs(&obs->registry, obs->trace.get());
    if (selection->batch != nullptr) {
      selection->batch->set_profiler(&obs->profiler);
    }
  }
  LSWC_RETURN_IF_ERROR(RunEngine(&engine, options_, "crawl"));
  return MakeResult(engine.metrics(), selection->frontier->max_size_seen(),
                    selection->bounded != nullptr
                        ? selection->bounded->dropped_count()
                        : 0);
}

StatusOr<SimulationResult> RunSimulation(const WebGraph& graph,
                                         Classifier* classifier,
                                         const CrawlStrategy& strategy,
                                         RenderMode render_mode,
                                         SimulationOptions options) {
  InMemoryLinkDb link_db(&graph);
  VirtualWebSpace web(&graph, &link_db, render_mode);
  Simulator sim(&web, classifier, &strategy, options);
  return sim.Run();
}

}  // namespace lswc
