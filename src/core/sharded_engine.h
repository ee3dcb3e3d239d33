#ifndef LSWC_CORE_SHARDED_ENGINE_H_
#define LSWC_CORE_SHARDED_ENGINE_H_

// The host-partitioned sharded crawl engine: the one CrawlEngine loop
// with two sharded plug-ins, everything else unchanged.
//
//  - The scheduler (the engine's FrontierScheduler) holds one frontier
//    slice per shard. A push goes to the slice of the URL's owning shard
//    with the next global push sequence; Next recovers the serial pop
//    order by merging the slice heads on (priority level desc, sequence
//    asc). In the batch regime each slice is a BatchFrontier pending
//    set, a rescore ranks every slice in parallel and merges the
//    per-shard top-K lists on (score desc, sequence asc), and Next pops
//    the selected batch.
//  - The visit planner (the engine's VisitPlanner) owns each shard's
//    web-space view, classifier clone, visitor and obs bundle. At every
//    round boundary it walks the upcoming pop order without popping,
//    visits the round's URLs in parallel (one util::ThreadPool task per
//    shard) into a cache, and hands each committed URL its cached visit
//    — or visits it inline on the owning shard when a fresher push
//    overtook the plan.
//
// Every state mutation happens in the engine's serial loop, and both the
// pop order and the plan are functions of the global frontier contents
// only, so the outputs (series, summary, snapshot payloads, journal, obs
// call counts) are bit-identical for every shard count and equal to the
// serial engine's. See docs/ARCHITECTURE.md "Sharded crawl pipeline".

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/classifier.h"
#include "core/crawl_engine.h"
#include "core/crawl_observer.h"
#include "core/frontier_factory.h"
#include "core/metrics.h"
#include "core/shard.h"
#include "core/strategy.h"
#include "core/virtual_web.h"
#include "obs/obs_fwd.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace lswc {

/// Knobs of the sharded engine: the crawl loop's own plus the two that
/// are really sharded.
struct ShardedEngineOptions : CrawlEngineOptions {
  /// Number of shards (>= 1). One shard is the degenerate baseline every
  /// N-shard run must match bit-for-bit.
  uint32_t num_shards = 1;
  /// Speculative visits planned per round (0 = 256). Deliberately *not*
  /// derived from the shard count: the plan set must be a function of
  /// global frontier state only, so that runs with different shard
  /// counts perform identical visit work.
  uint32_t batch_size = 0;
};

class ShardedScheduler;
class ShardVisitPlanner;

class ShardedCrawlEngine final : public Checkpointable {
 public:
  /// Builds the engine: the host -> shard router, per-shard frontier
  /// slices (MakeShardFrontiers — fails for bounded/spilling frontier
  /// options — or MakeBatchFrontiers), web-space views, classifier
  /// clones (or a mutex-shared classifier when Clone() returns null), and
  /// per-shard obs bundles. `web`, `classifier`, `strategy` are not
  /// owned and must outlive the engine.
  static StatusOr<std::unique_ptr<ShardedCrawlEngine>> Create(
      VirtualWebSpace* web, Classifier* classifier,
      const CrawlStrategy* strategy, const FrontierOptions& frontier_options,
      ShardedEngineOptions options);
  ~ShardedCrawlEngine() override;

  /// The crawl loop the shards plug into. Drivers attach observers and
  /// the RNG, resume and run through it; the methods below forward.
  CrawlEngine& engine() { return *engine_; }

  void AddObserver(CrawlObserver* observer) { engine_->AddObserver(observer); }
  Status Run() { return engine_->Run(); }
  Status ResumeFromSnapshot(const std::string& path) {
    return engine_->ResumeFromSnapshot(path);
  }
  Status SaveSnapshot(const std::string& path,
                      uint64_t* bytes_written = nullptr) const override {
    return engine_->SaveSnapshot(path, bytes_written);
  }
  const MetricsRecorder& metrics() const { return engine_->metrics(); }
  uint64_t pages_crawled() const override { return engine_->pages_crawled(); }
  uint64_t sample_interval() const override {
    return engine_->sample_interval();
  }

  /// Peak global frontier size (the paper's max queue-size metric).
  uint64_t max_frontier_size() const;

  /// Appends one entry per shard with its current pending-slice size,
  /// for the merged cross-shard telemetry snapshot. Reads shard
  /// frontiers without locks: call only from the crawl loop (where the
  /// TelemetryPublisher's OnFetch fires) or after Run.
  void AppendShardStates(std::vector<obs::ShardState>* out) const;

  /// Test hook: called by each shard's worker task at the start of its
  /// visit phase, from the worker thread, with the number of tasks
  /// submitted this round. The merge-determinism stress test uses it as
  /// a barrier that releases shards in randomized order.
  void set_visit_start_hook(
      std::function<void(uint32_t shard, uint32_t tasks_in_round)> hook);

 private:
  /// Exactly one of the slice vectors is non-empty, matching the
  /// regime: pop-order or batch.
  ShardedCrawlEngine(
      VirtualWebSpace* web, Classifier* classifier,
      const CrawlStrategy* strategy,
      std::vector<std::unique_ptr<ShardFrontier>> pop_slices,
      std::vector<std::unique_ptr<BatchFrontier>> batch_slices,
      const ShardedEngineOptions& options);

  ShardRouter router_;
  ThreadPool pool_;
  std::unique_ptr<ShardedScheduler> scheduler_;
  std::unique_ptr<ShardVisitPlanner> planner_;
  std::unique_ptr<CrawlEngine> engine_;
};

}  // namespace lswc

#endif  // LSWC_CORE_SHARDED_ENGINE_H_
