#include "core/sharded_engine.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/journal.h"
#include "obs/run_obs.h"
#include "obs/telemetry.h"
#include "webgraph/link_db.h"

namespace lswc {

/// The frontier side of the sharded engine: one slice per shard behind
/// the engine's scheduler port, with the global push sequence, the
/// global size and (batch regime) the selected batch. Called only from
/// the crawl loop's thread.
class ShardedScheduler final : public FrontierScheduler {
 public:
  ShardedScheduler(const ShardRouter* router,
                   std::vector<std::unique_ptr<ShardFrontier>> pop_slices,
                   std::vector<std::unique_ptr<BatchFrontier>> batch_slices,
                   obs::RunObs* obs, obs::JournalWriter* journal)
      : router_(router),
        pop_(std::move(pop_slices)),
        batch_(std::move(batch_slices)),
        journal_(journal) {
    if (obs == nullptr) return;
    profiler_ = &obs->profiler;
    if (!batch_.empty()) {
      rescore_rounds_ = obs->registry.counter("frontier.rescore_rounds");
      selected_urls_ = obs->registry.counter("frontier.selected_urls");
    }
  }

  void Push(PageId url, int priority) override {
    PushScored(url, priority, PushContext{});
  }

  void PushScored(PageId url, int priority,
                  const PushContext& context) override {
    if (!batch_.empty()) {
      // Mirrors the serial BatchFrontier: a URL in the current batch
      // ignores pushes (and consumes no sequence number); a re-push of a
      // pending URL updates its context in place without growing the
      // frontier.
      if (in_batch_.count(url) != 0) return;
      if (!batch_[owner(url)]->PushWithSeq(url, priority, context,
                                           next_seq_)) {
        return;
      }
      ++next_seq_;
    } else {
      pop_[owner(url)]->Push(url, priority, next_seq_++);
    }
    ++size_;
    max_size_ = std::max(max_size_, size_);
  }

  std::optional<PageId> Next(const CrawlState& state) override {
    (void)state;
    if (!batch_.empty()) {
      // The planner's batch round covers at most the queued batch, so
      // the loop never asks past its end.
      if (batch_queue_.empty()) return std::nullopt;
      const PageId url = batch_queue_.front();
      batch_queue_.pop_front();
      in_batch_.erase(url);
      --size_;
      return url;
    }
    obs::ScopedStage merge_stage(profiler_, obs::Stage::kMerge);
    ShardFrontier* best = nullptr;
    int best_level = -1;
    uint64_t best_seq = 0;
    for (const auto& slice : pop_) {
      const auto head = slice->PeekHead();
      if (!head.has_value()) continue;
      if (best == nullptr || head->level > best_level ||
          (head->level == best_level && head->seq < best_seq)) {
        best = slice.get();
        best_level = head->level;
        best_seq = head->seq;
      }
    }
    if (best == nullptr) return std::nullopt;
    const PageId url = best->PeekHead()->url;
    best->PopHead();
    --size_;
    return url;
  }

  size_t size() const override { return size_; }

  std::string SnapshotKind() const override {
    if (!batch_.empty()) return "sharded-batch";
    return pop_[0]->num_levels() <= 1 ? "sharded-fifo" : "sharded-bucket";
  }

  /// Payload: shard count, push sequence, global size and peak, the
  /// queued batch (batch regime), then every slice in shard order.
  Status SaveState(snapshot::SectionWriter* w) const override {
    w->U64(router_->num_shards());
    w->U64(next_seq_);
    w->U64(size_);
    w->U64(max_size_);
    if (!batch_.empty()) {
      w->U32Vec(std::vector<uint32_t>(batch_queue_.begin(),
                                      batch_queue_.end()));
      for (const auto& slice : batch_) LSWC_RETURN_IF_ERROR(slice->Save(w));
    } else {
      for (const auto& slice : pop_) slice->Save(w);
    }
    return Status::OK();
  }

  /// Reads and checks the whole payload, every slice included, before
  /// it changes anything, so a bad payload leaves the scheduler as it
  /// was.
  Status RestoreState(snapshot::SectionReader* r) override {
    const uint64_t saved_shards = r->U64();
    const uint64_t next_seq = r->U64();
    const uint64_t size = r->U64();
    const uint64_t max_size = r->U64();
    LSWC_RETURN_IF_ERROR(r->status());
    if (saved_shards != router_->num_shards()) {
      return Status::Corruption(
          "sharded frontier holds " + std::to_string(saved_shards) +
          " shards but the fingerprint matched " +
          std::to_string(router_->num_shards()));
    }
    uint64_t restored = 0;
    std::vector<uint64_t> seqs;  // Of every pending entry in every slice.
    std::deque<PageId> batch_queue;
    std::unordered_set<PageId> in_batch;
    std::vector<BatchFrontier::State> batch_states(batch_.size());
    std::vector<ShardFrontier> pop_states;
    if (!batch_.empty()) {
      const std::vector<uint32_t> queued = r->U32Vec();
      LSWC_RETURN_IF_ERROR(r->status());
      for (const uint32_t url : queued) {
        if (!in_batch.insert(url).second) {
          return Status::Corruption(
              "sharded batch queue snapshot repeats a URL");
        }
        batch_queue.push_back(url);
      }
      restored = batch_queue.size();
      for (size_t s = 0; s < batch_.size(); ++s) {
        BatchFrontier::State& state = batch_states[s];
        LSWC_RETURN_IF_ERROR(batch_[s]->ReadState(r, &state));
        restored += state.pending.size() + state.batch.size();
        for (const auto& [url, entry] : state.pending) {
          seqs.push_back(entry.seq);
        }
      }
      for (const PageId url : batch_queue) {
        for (const BatchFrontier::State& state : batch_states) {
          if (state.pending.count(url) != 0) {
            return Status::Corruption(
                "sharded batch queue snapshot repeats a pending URL");
          }
        }
      }
    } else {
      pop_states.reserve(pop_.size());
      for (const auto& slice : pop_) {
        pop_states.emplace_back(slice->num_levels());
        LSWC_RETURN_IF_ERROR(pop_states.back().Restore(r));
        restored += pop_states.back().size();
        for (int level = 0; level < slice->num_levels(); ++level) {
          for (const auto& entry : pop_states.back().level_entries(level)) {
            seqs.push_back(entry.seq);
          }
        }
      }
    }
    if (restored != size) {
      return Status::Corruption(
          "shard frontiers hold " + std::to_string(restored) +
          " pending URLs but the snapshot recorded " + std::to_string(size));
    }
    // The merge orders ties on the global sequence: unique, and below
    // the next one to be handed out.
    std::sort(seqs.begin(), seqs.end());
    if (std::adjacent_find(seqs.begin(), seqs.end()) != seqs.end()) {
      return Status::Corruption(
          "sharded frontier snapshot repeats a sequence number");
    }
    if (!seqs.empty() && seqs.back() >= next_seq) {
      return Status::Corruption(
          "sharded frontier snapshot holds sequence number " +
          std::to_string(seqs.back()) + " but its next_seq is " +
          std::to_string(next_seq));
    }

    next_seq_ = next_seq;
    size_ = size;
    max_size_ = max_size;
    batch_queue_ = std::move(batch_queue);
    in_batch_ = std::move(in_batch);
    for (size_t s = 0; s < batch_.size(); ++s) {
      batch_[s]->AdoptState(std::move(batch_states[s]));
    }
    for (size_t s = 0; s < pop_states.size(); ++s) {
      *pop_[s] = std::move(pop_states[s]);
    }
    return Status::OK();
  }

  /// Picks the next round for the visit planner and returns how many
  /// pages it commits (0 = exhausted), calling `plan(url)` on URLs the
  /// round is expected to pop, in pop order; `plan` returns false for a
  /// URL it already holds, which then does not count. Pop regime: a
  /// round commits up to min(`pop_budget`, `pages_left`) pages and plans
  /// as many uncrawled URLs by walking the merge order without popping.
  /// Batch regime: `pop_budget` does not apply; the round commits the
  /// selected batch (selecting the next first when it is spent), capped by
  /// `pages_left`. Both are functions of global state only, so the
  /// visit work is partition-invariant.
  uint64_t PlanRound(uint64_t pop_budget, uint64_t pages_left,
                     const CrawlState& state,
                     const std::function<bool(PageId)>& plan) {
    if (!batch_.empty()) {
      if (batch_queue_.empty()) SelectBatch();
      if (batch_queue_.empty()) return 0;  // Pending set exhausted too.
      const uint64_t budget =
          std::min<uint64_t>(batch_queue_.size(), pages_left);
      for (uint64_t i = 0; i < budget; ++i) plan(batch_queue_[i]);
      return budget;
    }
    if (size_ == 0) return 0;
    const uint64_t budget = std::min(pop_budget, pages_left);
    obs::ScopedStage merge_stage(profiler_, obs::Stage::kMerge);
    // One virtual-pop cursor per slice: (level, offset into the level's
    // deque), parked on its next entry or at level -1 once exhausted.
    // Advancing a cursor never mutates the frontier.
    struct Cursor {
      int level = -1;
      size_t idx = 0;
    };
    std::vector<Cursor> cursor;
    const auto park = [&](size_t s) {
      Cursor& c = cursor[s];
      while (c.level >= 0 && c.idx >= pop_[s]->level_entries(c.level).size()) {
        --c.level;
        c.idx = 0;
      }
    };
    const auto entry = [&](size_t s) -> const ShardFrontier::Entry& {
      return pop_[s]->level_entries(cursor[s].level)[cursor[s].idx];
    };
    for (size_t s = 0; s < pop_.size(); ++s) {
      cursor.push_back(Cursor{pop_[s]->num_levels() - 1});
      park(s);
    }
    uint64_t planned = 0;
    while (planned < budget) {
      // The globally next entry: highest level, then lowest sequence —
      // the same rule Next's merge-pop applies.
      int best = -1;
      for (size_t s = 0; s < pop_.size(); ++s) {
        if (cursor[s].level < 0) continue;
        if (best < 0 || cursor[s].level > cursor[best].level ||
            (cursor[s].level == cursor[best].level &&
             entry(s).seq < entry(best).seq)) {
          best = static_cast<int>(s);
        }
      }
      if (best < 0) break;  // Every cursor exhausted.
      const PageId url = entry(best).url;
      ++cursor[best].idx;
      park(best);
      if (state.crawled(url)) continue;  // Stale re-push entry.
      if (plan(url)) ++planned;
    }
    return budget;
  }

  uint64_t max_size() const { return max_size_; }

  void AppendShardStates(std::vector<obs::ShardState>* out) const {
    for (uint32_t s = 0; s < router_->num_shards(); ++s) {
      obs::ShardState state;
      state.shard = s;
      state.pending = batch_.empty() ? pop_[s]->size() : batch_[s]->size();
      out->push_back(state);
    }
  }

 private:
  uint32_t owner(PageId url) const { return router_->owner(url); }

  /// Batch regime: merges the slices' top-K lists into the global top
  /// K and moves the winners into the batch queue.
  void SelectBatch() {
    obs::ScopedStage stage(profiler_, obs::Stage::kRescore);
    if (rescore_rounds_ != nullptr) rescore_rounds_->Increment();
    const uint32_t select_k = batch_[0]->select_k();
    // Merge on the same (score desc, seq asc) total order the slices
    // rank by; sequences are globally unique, so the global top-K is
    // independent of the partitioning.
    std::vector<BatchFrontier::Candidate> merged;
    for (const auto& slice : batch_) {
      const std::vector<BatchFrontier::Candidate> top =
          slice->TopCandidates(select_k);
      merged.insert(merged.end(), top.begin(), top.end());
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > select_k) merged.resize(select_k);
    if (journal_ != nullptr) {
      // The global pending set is the union of the shard slices, so this
      // round record matches the serial BatchFrontier's byte-for-byte.
      size_t pending_before = 0;
      for (const auto& slice : batch_) pending_before += slice->pending_size();
      journal_->BatchRound(pending_before, merged.size());
    }
    uint32_t rank = 0;
    for (const BatchFrontier::Candidate& c : merged) {
      BatchFrontier* slice = batch_[owner(c.url)].get();
      if (journal_ != nullptr) slice->JournalSelect(journal_, c, rank);
      ++rank;
      slice->Remove(c.url);
      batch_queue_.push_back(c.url);
      in_batch_.insert(c.url);
    }
    if (selected_urls_ != nullptr) selected_urls_->Add(merged.size());
  }

  const ShardRouter* router_;
  /// Exactly one of the two is non-empty, matching the regime.
  std::vector<std::unique_ptr<ShardFrontier>> pop_;
  std::vector<std::unique_ptr<BatchFrontier>> batch_;
  obs::JournalWriter* journal_;
  uint64_t next_seq_ = 0;  // Global push sequence counter.
  uint64_t size_ = 0;      // Pending across slices (+ batch queue).
  uint64_t max_size_ = 0;  // Peak of size_, updated on push.
  /// Batch regime: the current globally selected batch, in selection
  /// order, plus its membership set.
  std::deque<PageId> batch_queue_;
  std::unordered_set<PageId> in_batch_;
  obs::StageProfiler* profiler_ = nullptr;
  obs::Counter* rescore_rounds_ = nullptr;
  obs::Counter* selected_urls_ = nullptr;
};

namespace {

/// Fallback for classifiers that cannot Clone(): every shard shares the
/// single instance, serialized through one mutex. Correct (and
/// TSan-clean) but slower than per-shard clones; Judge results stay
/// deterministic because the underlying classifier is per-page
/// deterministic.
class LockedClassifier final : public Classifier {
 public:
  LockedClassifier(Classifier* base, std::mutex* mu) : base_(base), mu_(mu) {}

  RelevanceJudgment Judge(const FetchResponse& response) override {
    std::lock_guard<std::mutex> lock(*mu_);
    return base_->Judge(response);
  }
  Language target_language() const override {
    return base_->target_language();
  }
  std::string name() const override { return base_->name(); }

 private:
  Classifier* base_;
  std::mutex* mu_;
};

}  // namespace

/// The visit side of the sharded engine: everything a parallel visit
/// touches is per shard (or immutable), and the cache of speculative
/// visits is written by the workers only into slots reserved serially.
class ShardVisitPlanner final : public VisitPlanner {
 public:
  /// `shard_obs` holds one child bundle per shard, or is empty when the
  /// run has no (enabled) obs bundle.
  ShardVisitPlanner(const ShardRouter* router, ShardedScheduler* scheduler,
                    ThreadPool* pool, VirtualWebSpace* web,
                    Classifier* classifier, const ShardedEngineOptions& options,
                    std::vector<std::unique_ptr<obs::RunObs>> shard_obs)
      : router_(router),
        scheduler_(scheduler),
        pool_(pool),
        obs_(options.obs),
        batch_size_(options.batch_size == 0 ? 256 : options.batch_size),
        plans_(router->num_shards()) {
    const WebGraph& graph = web->graph();
    for (uint32_t s = 0; s < router->num_shards(); ++s) {
      auto shard = std::make_unique<Shard>();
      shard->link_db = std::make_unique<InMemoryLinkDb>(&graph);
      shard->web = std::make_unique<VirtualWebSpace>(
          &graph, shard->link_db.get(), web->render_mode());
      shard->classifier = classifier->Clone();
      if (shard->classifier == nullptr) {
        if (classifier_mu_ == nullptr) {
          classifier_mu_ = std::make_unique<std::mutex>();
        }
        shard->classifier = std::make_unique<LockedClassifier>(
            classifier, classifier_mu_.get());
      }
      shard->visitor = std::make_unique<Visitor>(
          shard->web.get(), shard->classifier.get(), options.parse_html);
      if (!shard_obs.empty()) {
        shard->obs = std::move(shard_obs[s]);
        shard->visitor->set_profiler(&shard->obs->profiler);
      }
      shards_.push_back(std::move(shard));
    }
  }

  // Pool tasks hold `this`.
  ShardVisitPlanner(const ShardVisitPlanner&) = delete;
  ShardVisitPlanner& operator=(const ShardVisitPlanner&) = delete;

  uint64_t BeginRound(const CrawlState& state, uint64_t pages_left) override {
    EnableShardTraces();
    for (auto& plan : plans_) plan.clear();
    const uint64_t budget = scheduler_->PlanRound(
        batch_size_, pages_left, state, [this](PageId url) {
          const auto [slot, inserted] = cache_.try_emplace(url);
          if (!inserted) return false;  // Already visited or planned.
          plans_[owner(url)].emplace_back(url, &slot->second);
          return true;
        });
    uint32_t tasks_in_round = 0;
    for (const auto& plan : plans_) tasks_in_round += plan.empty() ? 0 : 1;
    for (uint32_t s = 0; s < plans_.size(); ++s) {
      if (plans_[s].empty()) continue;
      pool_->Submit([this, s, tasks_in_round] {
        if (visit_start_hook_) visit_start_hook_(s, tasks_in_round);
        Visitor& visitor = *shards_[s]->visitor;
        for (const auto& [url, slot] : plans_[s]) {
          slot->status = visitor.Visit(url, &slot->visit);
        }
      });
    }
    pool_->Wait();
    return budget;
  }

  Status Visit(PageId url, VisitResult* visit) override {
    const auto it = cache_.find(url);
    if (it == cache_.end()) {
      // Speculation miss (a fresher push overtook the plan): visit
      // inline, serially, on the owning shard's visitor.
      return shards_[owner(url)]->visitor->Visit(url, visit);
    }
    const Status status = it->second.status;
    *visit = std::move(it->second.visit);
    cache_.erase(it);
    return status;
  }

  void EndRun() override {
    // Leftover speculative visits are discarded: a page the crawl never
    // committed contributes nothing to any output.
    cache_.clear();
    EnableShardTraces();  // A run that planned no round still gets them.
    // Fold the visit-side stage counts, registries and shard trace
    // tracks into the parent bundle.
    if (obs_ == nullptr) return;
    for (auto& shard : shards_) {
      obs_->MergeFrom(*shard->obs);
      if (shard->obs->trace != nullptr) {
        obs_->shard_traces.push_back(std::move(shard->obs->trace));
      }
    }
  }

  uint32_t owner(PageId url) const override { return router_->owner(url); }
  uint32_t num_shards() const override { return router_->num_shards(); }

  void set_visit_start_hook(std::function<void(uint32_t, uint32_t)> hook) {
    visit_start_hook_ = std::move(hook);
  }

 private:
  struct Shard {
    std::unique_ptr<InMemoryLinkDb> link_db;
    std::unique_ptr<VirtualWebSpace> web;
    std::unique_ptr<Classifier> classifier;  // Clone or locked wrapper.
    std::unique_ptr<Visitor> visitor;
    std::unique_ptr<obs::RunObs> obs;  // Child bundle; null when obs off.
  };

  /// A speculative visit result, keyed by URL in `cache_`.
  struct CacheEntry {
    Status status = Status::OK();
    VisitResult visit;
  };

  /// One trace track per shard, derived from the parent track id, made
  /// lazily so drivers may EnableTrace on the parent any time before Run.
  void EnableShardTraces() {
    if (obs_ == nullptr || obs_->trace == nullptr) return;
    const int base = (obs_->trace->tid() + 1) * 1000;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s]->obs->trace == nullptr) {
        shards_[s]->obs->EnableTrace(base + static_cast<int>(s),
                                     "shard-" + std::to_string(s));
      }
    }
  }

  const ShardRouter* router_;
  ShardedScheduler* scheduler_;
  ThreadPool* pool_;
  obs::RunObs* obs_;  // Parent bundle; null when obs off.
  uint64_t batch_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set when the classifier could not be cloned: every shard's locked
  /// wrapper serializes Judge() calls through this mutex.
  std::unique_ptr<std::mutex> classifier_mu_;
  std::unordered_map<PageId, CacheEntry> cache_;
  std::vector<std::vector<std::pair<PageId, CacheEntry*>>> plans_;
  std::function<void(uint32_t, uint32_t)> visit_start_hook_;
};

StatusOr<std::unique_ptr<ShardedCrawlEngine>> ShardedCrawlEngine::Create(
    VirtualWebSpace* web, Classifier* classifier,
    const CrawlStrategy* strategy, const FrontierOptions& frontier_options,
    ShardedEngineOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("sharded engine needs num_shards >= 1");
  }
  std::vector<std::unique_ptr<ShardFrontier>> pop_slices;
  std::vector<std::unique_ptr<BatchFrontier>> batch_slices;
  if (frontier_options.kind == "batch") {
    auto f = MakeBatchFrontiers(frontier_options, options.num_shards);
    LSWC_RETURN_IF_ERROR(f.status());
    batch_slices = std::move(f).value();
    // Canonical batch identity for the fingerprint: the constructed
    // frontier's resolved values, not the raw caller options.
    options.batch_k = batch_slices[0]->select_k();
    options.scorer_spec = batch_slices[0]->scorer().name();
  } else {
    auto f =
        MakeShardFrontiers(*strategy, frontier_options, options.num_shards);
    LSWC_RETURN_IF_ERROR(f.status());
    pop_slices = std::move(f).value();
  }
  if (options.obs != nullptr && !options.obs->enabled) options.obs = nullptr;
  return std::unique_ptr<ShardedCrawlEngine>(
      new ShardedCrawlEngine(web, classifier, strategy, std::move(pop_slices),
                             std::move(batch_slices), options));
}

ShardedCrawlEngine::ShardedCrawlEngine(
    VirtualWebSpace* web, Classifier* classifier,
    const CrawlStrategy* strategy,
    std::vector<std::unique_ptr<ShardFrontier>> pop_slices,
    std::vector<std::unique_ptr<BatchFrontier>> batch_slices,
    const ShardedEngineOptions& options)
    : router_(web->graph(), options.num_shards),
      pool_(router_.num_shards()) {
  std::vector<std::unique_ptr<obs::RunObs>> shard_obs;
  if (options.obs != nullptr) {
    for (uint32_t s = 0; s < router_.num_shards(); ++s) {
      shard_obs.push_back(std::make_unique<obs::RunObs>());
      // frontier.scored_urls lands on the shard registry (incremented
      // by the slice's pushes) and is summed into the parent when the
      // run ends.
      if (!batch_slices.empty()) {
        batch_slices[s]->AttachObs(&shard_obs[s]->registry, nullptr);
      }
    }
  }
  scheduler_ = std::make_unique<ShardedScheduler>(
      &router_, std::move(pop_slices), std::move(batch_slices), options.obs,
      options.journal);
  planner_ = std::make_unique<ShardVisitPlanner>(
      &router_, scheduler_.get(), &pool_, web, classifier, options,
      std::move(shard_obs));
  engine_ = std::make_unique<CrawlEngine>(web, classifier, strategy,
                                          scheduler_.get(), options);
  engine_->AttachVisitPlanner(planner_.get());
}

ShardedCrawlEngine::~ShardedCrawlEngine() = default;

uint64_t ShardedCrawlEngine::max_frontier_size() const {
  return scheduler_->max_size();
}

void ShardedCrawlEngine::AppendShardStates(
    std::vector<obs::ShardState>* out) const {
  scheduler_->AppendShardStates(out);
}

void ShardedCrawlEngine::set_visit_start_hook(
    std::function<void(uint32_t, uint32_t)> hook) {
  planner_->set_visit_start_hook(std::move(hook));
}

}  // namespace lswc
