#include "core/crawl_engine.h"

#include <algorithm>
#include <array>

#include "obs/journal.h"
#include "obs/run_obs.h"
#include "snapshot/snapshot_file.h"

namespace lswc {

namespace {
uint64_t ResolveSampleInterval(uint64_t requested, uint64_t max_pages,
                               size_t num_pages) {
  if (requested != 0) return requested;
  const uint64_t horizon = max_pages != 0 ? max_pages : num_pages;
  return std::max<uint64_t>(1, horizon / 400);
}
}  // namespace

CrawlEngine::CrawlEngine(VirtualWebSpace* web, Classifier* classifier,
                         const CrawlStrategy* strategy,
                         FrontierScheduler* scheduler,
                         CrawlEngineOptions options)
    : web_(web),
      strategy_(strategy),
      scheduler_(scheduler),
      options_(options),
      visitor_(web, classifier, options.parse_html),
      state_(web->graph().num_pages()),
      sample_interval_(ResolveSampleInterval(options.sample_interval,
                                             options.max_pages,
                                             web->graph().num_pages())),
      metrics_(web->graph().ComputeStats().relevant_ok_pages,
               sample_interval_),
      classifier_name_(classifier->name()),
      journal_(options.journal) {
  AddObserver(&metrics_);
  if (options.obs != nullptr && options.obs->enabled) {
    obs::RunObs* obs = options.obs;
    profiler_ = &obs->profiler;
    visitor_.set_profiler(profiler_);
    frontier_depth_ = obs->registry.histogram("frontier.depth");
    push_level_ = obs->registry.histogram("frontier.push_level");
    pushes_ = obs->registry.counter("crawl.pushes");
    repushes_ = obs->registry.counter("crawl.repushes");
    link_drops_ = obs->registry.counter("crawl.link_drops");
  }
}

void CrawlEngine::AddObserver(CrawlObserver* observer) {
  observers_.push_back(observer);
  if (observer->wants_link_events()) link_observers_.push_back(observer);
}

Status CrawlEngine::Run() {
  const WebGraph& graph = web_->graph();
  if (graph.seeds().empty()) {
    return Status::FailedPrecondition("graph has no seed URLs");
  }
  if (!resumed_) {
    for (PageId seed : graph.seeds()) {
      if (!state_.EnqueueSeed(seed, strategy_->seed_priority())) continue;
      scheduler_->Push(seed, strategy_->seed_priority());
      if (journal_ != nullptr) {
        journal_->Seed(seed, strategy_->seed_priority());
      }
    }
  }

  Status status;
  VisitResult visit;
  uint64_t round_left = 0;  // Pages the planner's round may still commit.
  while (true) {
    if (options_.max_pages != 0 && pages_crawled_ >= options_.max_pages) {
      break;
    }
    if (scheduler_->StopRequested()) break;
    if (planner_ != nullptr && round_left == 0) {
      round_left = planner_->BeginRound(
          state_, options_.max_pages != 0 ? options_.max_pages - pages_crawled_
                                          : UINT64_MAX);
      if (round_left == 0) break;
    }
    const auto next = scheduler_->Next(state_);
    if (!next.has_value()) break;
    if (state_.crawled(*next)) continue;  // Stale duplicate from a re-push.
    status = CrawlOne(*next, &visit);
    if (!status.ok()) break;
    --round_left;  // Read only with a planner attached.
  }
  if (status.ok() &&
      (pages_crawled_ % sample_interval_ != 0 || pages_crawled_ == 0)) {
    NotifySample(/*is_final=*/true);
  }
  if (planner_ != nullptr) planner_->EndRun();
  return status;
}

Status CrawlEngine::CrawlOne(PageId url, VisitResult* visit) {
  state_.MarkCrawled(url);
  LSWC_RETURN_IF_ERROR(planner_ != nullptr ? planner_->Visit(url, visit)
                                           : visitor_.Visit(url, visit));
  const bool ok = visit->response.ok();

  if (ok) {
    obs::ScopedStage strategy_stage(profiler_, obs::Stage::kStrategy);
    const ParentInfo parent{url, visit->judgment.relevant,
                            state_.annotation(url)};
    PushContext context;
    context.parent_relevant = visit->judgment.relevant;
    context.parent_confidence = visit->judgment.confidence;
    for (PageId child : visit->links) {
      if (state_.crawled(child)) {
        if (link_drops_ != nullptr) link_drops_->Increment();
        if (journal_ != nullptr) {
          journal_->Drop(child, url, obs::kJournalDropAlreadyCrawled,
                         visit->judgment.relevant);
        }
        for (CrawlObserver* o : link_observers_) {
          o->OnDrop(child, LinkDropReason::kAlreadyCrawled);
        }
        continue;
      }
      const LinkDecision d = strategy_->OnLink(parent, child);
      if (!d.enqueue) {
        if (link_drops_ != nullptr) link_drops_->Increment();
        if (journal_ != nullptr) {
          journal_->Drop(child, url, obs::kJournalDropStrategyDiscard,
                         visit->judgment.relevant);
        }
        for (CrawlObserver* o : link_observers_) {
          o->OnDrop(child, LinkDropReason::kStrategyDiscard);
        }
        continue;
      }
      switch (state_.OfferLink(child, d)) {
        case CrawlState::Offer::kIgnored:
          if (link_drops_ != nullptr) link_drops_->Increment();
          if (journal_ != nullptr) {
            journal_->Drop(child, url, obs::kJournalDropNotBetter,
                           visit->judgment.relevant);
          }
          for (CrawlObserver* o : link_observers_) {
            o->OnDrop(child, LinkDropReason::kNotBetter);
          }
          break;
        case CrawlState::Offer::kFirst: {
          obs::ScopedStage push_stage(profiler_, obs::Stage::kFrontierPush);
          context.annotation = d.annotation;
          scheduler_->PushScored(child, d.priority, context);
          if (pushes_ != nullptr) {
            pushes_->Increment();
            push_level_->Record(
                static_cast<uint64_t>(std::max(d.priority, 0)));
          }
          if (journal_ != nullptr) {
            journal_->Link(/*repush=*/false, child, url, d.priority,
                           d.annotation, visit->judgment.relevant);
          }
          for (CrawlObserver* o : link_observers_) o->OnEnqueue(child, d);
          break;
        }
        case CrawlState::Offer::kBetter: {
          obs::ScopedStage push_stage(profiler_, obs::Stage::kFrontierPush);
          context.annotation = d.annotation;
          scheduler_->PushScored(child, d.priority, context);
          if (repushes_ != nullptr) {
            repushes_->Increment();
            push_level_->Record(
                static_cast<uint64_t>(std::max(d.priority, 0)));
          }
          if (journal_ != nullptr) {
            journal_->Link(/*repush=*/true, child, url, d.priority,
                           d.annotation, visit->judgment.relevant);
          }
          for (CrawlObserver* o : link_observers_) o->OnRePush(child, d);
          break;
        }
      }
    }
  }

  ++pages_crawled_;
  FetchEvent event;
  event.url = url;
  event.ok = ok;
  event.truly_relevant = web_->graph().IsRelevant(url);
  event.judged_relevant = visit->judgment.relevant;
  event.frontier_size = scheduler_->size();
  event.pages_crawled = pages_crawled_;
  event.shard = planner_ != nullptr ? planner_->owner(url) : 0;
  if (frontier_depth_ != nullptr) frontier_depth_->Record(event.frontier_size);
  if (journal_ != nullptr) {
    journal_->Fetch(url, ok, event.truly_relevant, event.judged_relevant,
                    event.frontier_size, pages_crawled_);
  }
  for (CrawlObserver* o : observers_) o->OnFetch(event);
  if (pages_crawled_ % sample_interval_ == 0) {
    NotifySample(/*is_final=*/false);
  }
  return Status::OK();
}

void CrawlEngine::NotifySample(bool is_final) {
  obs::ScopedStage stage(profiler_, obs::Stage::kSample);
  SampleEvent event;
  event.pages_crawled = pages_crawled_;
  event.frontier_size = scheduler_->size();
  event.is_final = is_final;
  if (journal_ != nullptr) {
    journal_->Sample(event.frontier_size, pages_crawled_, is_final);
  }
  for (CrawlObserver* o : observers_) o->OnSample(event);
}

snapshot::CrawlFingerprint CrawlEngine::Fingerprint() const {
  const WebGraph& graph = web_->graph();
  snapshot::CrawlFingerprint fp;
  fp.num_pages = graph.num_pages();
  fp.num_hosts = graph.num_hosts();
  fp.num_links = graph.num_links();
  fp.generator_seed = graph.generator_seed();
  fp.target_language = static_cast<uint8_t>(graph.target_language());
  fp.strategy_name = strategy_->name();
  fp.num_priority_levels =
      static_cast<uint64_t>(strategy_->num_priority_levels());
  fp.seed_priority = static_cast<uint64_t>(strategy_->seed_priority());
  fp.classifier_name = classifier_name_;
  fp.sample_interval = sample_interval_;
  fp.parse_html = options_.parse_html;
  fp.scheduler_kind = scheduler_->SnapshotKind();
  fp.batch_k = options_.batch_k;
  fp.scorer_spec = options_.scorer_spec;
  fp.num_shards = planner_ != nullptr ? planner_->num_shards() : 0;
  fp.dataset_file = options_.dataset_file;
  fp.memory_budget_mb = options_.memory_budget_mb;
  return fp;
}

Status CrawlEngine::SaveSnapshot(const std::string& path,
                                 uint64_t* bytes_written) const {
  obs::ScopedStage stage(profiler_, obs::Stage::kCheckpoint);
  snapshot::SnapshotWriter writer;

  snapshot::SectionWriter fingerprint;
  Fingerprint().Save(&fingerprint);
  writer.AddSection(snapshot::SectionId::kFingerprint, fingerprint);

  snapshot::SectionWriter engine;
  engine.U64(pages_crawled_);
  writer.AddSection(snapshot::SectionId::kEngine, engine);

  snapshot::SectionWriter crawl_state;
  state_.Save(&crawl_state);
  writer.AddSection(snapshot::SectionId::kCrawlState, crawl_state);

  snapshot::SectionWriter frontier;
  LSWC_RETURN_IF_ERROR(scheduler_->SaveState(&frontier));
  writer.AddSection(snapshot::SectionId::kFrontier, frontier);

  snapshot::SectionWriter metrics;
  LSWC_RETURN_IF_ERROR(metrics_.Save(&metrics));
  writer.AddSection(snapshot::SectionId::kMetrics, metrics);

  if (rng_ != nullptr) {
    snapshot::SectionWriter rng;
    for (uint64_t word : rng_->state()) rng.U64(word);
    writer.AddSection(snapshot::SectionId::kRng, rng);
  }

  return writer.WriteFile(path, bytes_written);
}

Status CrawlEngine::ResumeFromSnapshot(const std::string& path) {
  StatusOr<snapshot::SnapshotReader> file = snapshot::SnapshotReader::Open(path);
  LSWC_RETURN_IF_ERROR(file.status());

  // Fingerprint first: refuse to touch state if the snapshot came from a
  // different dataset / strategy / classifier / scheduler configuration.
  {
    StatusOr<snapshot::SectionReader> section =
        file->Section(snapshot::SectionId::kFingerprint);
    LSWC_RETURN_IF_ERROR(section.status());
    StatusOr<snapshot::CrawlFingerprint> fp =
        snapshot::CrawlFingerprint::Load(&*section);
    LSWC_RETURN_IF_ERROR(fp.status());
    LSWC_RETURN_IF_ERROR(section->Finish());
    LSWC_RETURN_IF_ERROR(Fingerprint().Match(*fp));
  }
  {
    StatusOr<snapshot::SectionReader> section =
        file->Section(snapshot::SectionId::kEngine);
    LSWC_RETURN_IF_ERROR(section.status());
    pages_crawled_ = section->U64();
    LSWC_RETURN_IF_ERROR(section->Finish());
  }
  {
    StatusOr<snapshot::SectionReader> section =
        file->Section(snapshot::SectionId::kCrawlState);
    LSWC_RETURN_IF_ERROR(section.status());
    LSWC_RETURN_IF_ERROR(state_.Restore(&*section));
    LSWC_RETURN_IF_ERROR(section->Finish());
  }
  {
    StatusOr<snapshot::SectionReader> section =
        file->Section(snapshot::SectionId::kFrontier);
    LSWC_RETURN_IF_ERROR(section.status());
    LSWC_RETURN_IF_ERROR(scheduler_->RestoreState(&*section));
    LSWC_RETURN_IF_ERROR(section->Finish());
  }
  {
    StatusOr<snapshot::SectionReader> section =
        file->Section(snapshot::SectionId::kMetrics);
    LSWC_RETURN_IF_ERROR(section.status());
    LSWC_RETURN_IF_ERROR(metrics_.Restore(&*section));
    LSWC_RETURN_IF_ERROR(section->Finish());
  }
  if (rng_ != nullptr && file->HasSection(snapshot::SectionId::kRng)) {
    StatusOr<snapshot::SectionReader> section =
        file->Section(snapshot::SectionId::kRng);
    LSWC_RETURN_IF_ERROR(section.status());
    std::array<uint64_t, 4> state;
    for (uint64_t& word : state) word = section->U64();
    LSWC_RETURN_IF_ERROR(section->Finish());
    rng_->set_state(state);
  }
  resumed_ = true;
  return Status::OK();
}

}  // namespace lswc
