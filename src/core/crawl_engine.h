#ifndef LSWC_CORE_CRAWL_ENGINE_H_
#define LSWC_CORE_CRAWL_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/classifier.h"
#include "core/crawl_observer.h"
#include "core/crawl_state.h"
#include "core/frontier.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "core/virtual_web.h"
#include "core/visitor.h"
#include "obs/obs_fwd.h"
#include "snapshot/fingerprint.h"
#include "snapshot/section.h"
#include "util/random.h"

namespace lswc {

/// The engine's port to a frontier implementation: the engine pushes
/// seeds and expanded links through `Push` and asks `Next` for the URL
/// to fetch. A scheduler may be a plain priority queue (Simulator) or a
/// time-aware per-host event scheduler (PolitenessSimulator) — the crawl
/// loop itself does not change.
class FrontierScheduler {
 public:
  virtual ~FrontierScheduler() = default;

  /// Enqueues `url` at `priority` (higher pops first).
  virtual void Push(PageId url, int priority) = 0;

  /// Enqueues with link context for score-based frontiers. Pop-order
  /// schedulers ignore the context (the priority already encodes the
  /// strategy's verdict), so the default forwards to Push.
  virtual void PushScored(PageId url, int priority,
                          const PushContext& context) {
    (void)context;
    Push(url, priority);
  }

  /// Returns the next URL to fetch, or nullopt when the frontier is
  /// exhausted. `state` lets a time-aware scheduler skip already-crawled
  /// (stale re-push) entries without occupying fetch slots; the engine
  /// re-checks `state.crawled` on the returned URL either way.
  virtual std::optional<PageId> Next(const CrawlState& state) = 0;

  /// Pending URLs (the paper's queue-size metric).
  virtual size_t size() const = 0;

  /// Scheduler-specific stop condition checked once per loop iteration
  /// (e.g. a simulated-time budget). Default: never.
  virtual bool StopRequested() const { return false; }

  /// Snapshot port. `SnapshotKind` is the stable identifier recorded in
  /// the snapshot fingerprint; `SaveState`/`RestoreState` serialize the
  /// scheduler's complete pending state (frontier contents, clocks,
  /// in-flight work). Schedulers that do not override these cannot be
  /// checkpointed — attempting to returns Unimplemented, never crashes.
  virtual std::string SnapshotKind() const { return "unsupported"; }
  virtual Status SaveState(snapshot::SectionWriter* w) const {
    (void)w;
    return Status::Unimplemented("this scheduler does not support snapshots");
  }
  virtual Status RestoreState(snapshot::SectionReader* r) {
    (void)r;
    return Status::Unimplemented("this scheduler does not support snapshots");
  }
};

/// Adapts a plain Frontier to the scheduler port (Pop order only, no
/// timing) — what Simulator runs on.
class FrontierPopScheduler final : public FrontierScheduler {
 public:
  explicit FrontierPopScheduler(Frontier* frontier) : frontier_(frontier) {}

  void Push(PageId url, int priority) override {
    frontier_->Push(url, priority);
  }
  void PushScored(PageId url, int priority,
                  const PushContext& context) override {
    frontier_->PushScored(url, priority, context);
  }
  std::optional<PageId> Next(const CrawlState& state) override {
    (void)state;
    return frontier_->Pop();
  }
  size_t size() const override { return frontier_->size(); }

  std::string SnapshotKind() const override { return frontier_->kind_name(); }
  Status SaveState(snapshot::SectionWriter* w) const override {
    return frontier_->Save(w);
  }
  Status RestoreState(snapshot::SectionReader* r) override {
    return frontier_->Restore(r);
  }

 private:
  Frontier* frontier_;
};

/// The engine's port to a visit planner — the sharded engine's plan ->
/// parallel-visit speculation. With a planner attached the loop runs in
/// rounds: at each round boundary it calls BeginRound, which picks the
/// round's URLs from the frontier, visits them ahead of the commit and
/// returns how many pages the round commits. Each committed page then
/// takes its visit from Visit instead of the engine's own visitor; the
/// commit itself (crawl state, strategy, pushes, journal, observers)
/// stays the loop's, so a planned crawl decides exactly as a plain one.
class VisitPlanner {
 public:
  virtual ~VisitPlanner() = default;

  /// Starts a round that may commit at most `pages_left` pages. Returns
  /// the round's page budget; 0 ends the crawl (frontier exhausted).
  virtual uint64_t BeginRound(const CrawlState& state,
                              uint64_t pages_left) = 0;

  /// The visit of `url`: the round's speculative result, or an inline
  /// visit when the plan missed it.
  virtual Status Visit(PageId url, VisitResult* visit) = 0;

  /// Called once when Run ends (after the final sample, also on error).
  virtual void EndRun() = 0;

  /// The shard that owns `url`, reported in FetchEvent::shard.
  virtual uint32_t owner(PageId url) const = 0;
  /// The shard count, recorded in the snapshot fingerprint.
  virtual uint32_t num_shards() const = 0;
};

/// Engine knobs — the subset of SimulationOptions the crawl loop itself
/// consumes.
struct CrawlEngineOptions {
  /// Stop after this many crawled URLs (0 = run until the frontier
  /// empties, the paper's termination condition).
  uint64_t max_pages = 0;
  /// Metric sampling step in crawled pages (0 = auto: ~400 samples over
  /// the run's horizon).
  uint64_t sample_interval = 0;
  /// Extract links by parsing rendered HTML instead of replaying the
  /// link database (requires the web space to render kFull).
  bool parse_html = false;
  /// Per-run observability bundle (not owned; may be null). A disabled
  /// bundle is treated exactly like null — no probes fire.
  obs::RunObs* obs = nullptr;
  /// Decision journal sink (not owned; null = no journaling). The
  /// engine emits every seed/fetch/link/sample decision; emission is
  /// serial-path only, and with a null journal no probe fires, keeping
  /// journal-off runs byte-identical to a build without the feature.
  obs::JournalWriter* journal = nullptr;
  /// Batch-regime identity, recorded in the snapshot fingerprint (0 /
  /// empty outside the batch regime). The engine does not act on these;
  /// the BatchFrontier does.
  uint64_t batch_k = 0;
  std::string scorer_spec;
  /// Out-of-core identity for the snapshot fingerprint: the dataset
  /// file the run replays (empty = in-RAM graph) and the global memory
  /// budget in MiB (0 = unbudgeted). The engine does not act on these;
  /// the drivers size frontiers and link caches from the budget.
  std::string dataset_file;
  uint64_t memory_budget_mb = 0;
};

/// The crawl loop of the paper's Fig 2: every driver (Simulator,
/// PolitenessSimulator, the sharded engine) runs the *same* seed-push /
/// fetch / judge / expand / re-push cycle over the same CrawlState,
/// differing only in the FrontierScheduler they plug in, the
/// CrawlObservers they attach and, for the sharded engine, the
/// VisitPlanner that supplies the visits.
///
/// The engine owns the per-URL CrawlState and a MetricsRecorder (the
/// §3.4 metrics), which is attached to the observer bus like any other
/// observer — drivers read it from `metrics()` after Run.
class CrawlEngine : public Checkpointable {
 public:
  /// Pointers are not owned and must outlive the engine. The
  /// MetricsRecorder is constructed here (coverage denominator from the
  /// graph's stats, resolved sampling interval) and auto-attached as the
  /// first observer, so observers added later may read it during their
  /// own callbacks.
  CrawlEngine(VirtualWebSpace* web, Classifier* classifier,
              const CrawlStrategy* strategy, FrontierScheduler* scheduler,
              CrawlEngineOptions options);

  /// Attaches an observer (not owned). Callbacks fire in attach order.
  void AddObserver(CrawlObserver* observer);

  /// Registers the run's RNG stream (not owned) so snapshots capture and
  /// restore it. Optional: runs whose strategies never draw randomness
  /// need no RNG in the checkpoint.
  void AttachRng(Rng* rng) { rng_ = rng; }

  /// Runs the loop in rounds with `planner` (not owned) supplying the
  /// visits; see VisitPlanner. Attach before Run.
  void AttachVisitPlanner(VisitPlanner* planner) { planner_ = planner; }

  /// Seeds the frontier (unless resumed from a snapshot) and runs the
  /// crawl to completion: frontier exhausted, `max_pages` reached, or the
  /// scheduler requested a stop. Emits the final tail sample before
  /// returning.
  Status Run();

  /// Writes the complete run state to `path` (atomic temp+rename): crawl
  /// bitmaps, scheduler/frontier contents, metrics series so far, RNG
  /// stream (if attached), and a fingerprint of the configuration.
  /// `bytes_written` (optional) receives the snapshot's on-disk size.
  Status SaveSnapshot(const std::string& path,
                      uint64_t* bytes_written = nullptr) const override;

  /// Restores the engine from a snapshot written by SaveSnapshot under
  /// the same configuration. Fails with FailedPrecondition (fingerprint
  /// mismatch) or Corruption (damaged file) without starting the crawl;
  /// on success the next Run() continues mid-stream instead of seeding.
  Status ResumeFromSnapshot(const std::string& path);

  const MetricsRecorder& metrics() const { return metrics_; }
  const CrawlState& state() const { return state_; }
  uint64_t pages_crawled() const override { return pages_crawled_; }
  /// The resolved sampling step (never 0).
  uint64_t sample_interval() const override { return sample_interval_; }

 private:
  /// Fetches one URL, judges it, expands its links through the strategy
  /// and the better-referrer rule, and notifies observers.
  Status CrawlOne(PageId url, VisitResult* visit);

  void NotifySample(bool is_final);

  /// This run's configuration identity, compared against the one stored
  /// in a snapshot before any state is restored.
  snapshot::CrawlFingerprint Fingerprint() const;

  VirtualWebSpace* web_;
  const CrawlStrategy* strategy_;
  FrontierScheduler* scheduler_;
  CrawlEngineOptions options_;
  Visitor visitor_;
  CrawlState state_;
  uint64_t sample_interval_;
  MetricsRecorder metrics_;
  std::string classifier_name_;
  Rng* rng_ = nullptr;
  VisitPlanner* planner_ = nullptr;
  bool resumed_ = false;
  uint64_t pages_crawled_ = 0;
  obs::JournalWriter* journal_ = nullptr;
  /// Obs handles, cached at construction; all null when the run has no
  /// (enabled) bundle, so every probe below is a null check.
  obs::StageProfiler* profiler_ = nullptr;
  obs::Histogram* frontier_depth_ = nullptr;
  obs::Histogram* push_level_ = nullptr;
  obs::Counter* pushes_ = nullptr;
  obs::Counter* repushes_ = nullptr;
  obs::Counter* link_drops_ = nullptr;
  std::vector<CrawlObserver*> observers_;
  /// Subset of observers_ that opted into per-link callbacks; kept
  /// separately so the per-link hot path costs nothing when (as in the
  /// default metrics-only setup) nobody listens.
  std::vector<CrawlObserver*> link_observers_;
};

}  // namespace lswc

#endif  // LSWC_CORE_CRAWL_ENGINE_H_
