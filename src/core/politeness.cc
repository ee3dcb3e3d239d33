#include "core/politeness.h"

#include <cmath>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/crawl_engine.h"
#include "core/host_frontier.h"
#include "core/metrics.h"
#include "obs/run_obs.h"
#include "snapshot/series_io.h"

namespace lswc {

uint64_t EstimateTransferBytes(const PageRecord& record) {
  if (!record.ok()) return 512;  // Error page + headers.
  double bytes_per_char = 1.0;
  switch (record.true_encoding) {
    case Encoding::kEucJp:
    case Encoding::kShiftJis:
      bytes_per_char = 2.0;
      break;
    case Encoding::kIso2022Jp:
      bytes_per_char = 2.2;  // Pairs plus escape overhead.
      break;
    case Encoding::kUtf8:
      bytes_per_char = 2.4;  // CJK/Thai text is 3 bytes/char, ASCII 1.
      break;
    default:
      bytes_per_char = 1.0;
      break;
  }
  // Markup skeleton + anchors dominate small pages.
  return 600 + static_cast<uint64_t>(record.content_chars * bytes_per_char);
}

namespace {

/// The event-driven half of the politeness simulator behind the engine's
/// scheduler port: per-server queues (the component the paper's first
/// simulator omitted — URLs wait in their host's queue, hosts become
/// eligible as their access interval elapses, the scheduler always
/// serves the earliest-ready host), `num_connections` in-flight fetch
/// slots, and the simulated clock. Strategy priorities order URLs within
/// a host; the crawl loop itself lives in CrawlEngine.
class PolitenessScheduler final : public FrontierScheduler {
 public:
  PolitenessScheduler(const WebGraph* graph, int num_levels,
                      const PolitenessOptions& options)
      : graph_(graph),
        options_(options),
        frontier_(static_cast<uint32_t>(graph->num_hosts()), num_levels),
        slots_(static_cast<size_t>(options.num_connections)) {}

  /// Exports the host frontier's scheduling metrics and the simulated
  /// per-fetch latency histogram into `registry` (may be null).
  void AttachObs(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    frontier_.AttachObs(registry);
    obs_fetch_latency_us_ = registry->histogram("politeness.fetch_latency_us");
  }

  void Push(PageId url, int priority) override {
    frontier_.Push(url, graph_->page(url).host, priority);
  }

  std::optional<PageId> Next(const CrawlState& state) override {
    while (true) {
      // Fill idle slots with URLs whose hosts are ready now.
      while (active_.size() < slots_) {
        const auto next = frontier_.PopReady(now_);
        if (!next.has_value()) break;
        const PageId url = *next;
        if (state.crawled(url)) continue;  // Stale duplicate from a re-push.
        const uint32_t host = graph_->page(url).host;
        frontier_.SetHostNextFree(host,
                                  now_ + options_.min_access_interval_sec);
        const double transfer =
            options_.base_latency_sec +
            static_cast<double>(EstimateTransferBytes(graph_->page(url))) /
                options_.bandwidth_bytes_per_sec;
        if (obs_fetch_latency_us_ != nullptr) {
          // Simulated ticks (µs of simulated time), not wall time —
          // deterministic like everything else in the registry.
          obs_fetch_latency_us_->Record(
              static_cast<uint64_t>(std::llround(transfer * 1e6)));
        }
        active_.emplace(now_ + transfer, url);
      }

      if (active_.empty()) {
        const auto next_ready = frontier_.NextReadyTime();
        if (!next_ready.has_value()) return std::nullopt;  // Truly done.
        AdvanceTo(*next_ready);
        continue;
      }

      // Complete the earliest in-flight fetch; the engine skips the URL
      // if a duplicate of it already finished.
      const auto [finish, url] = active_.top();
      active_.pop();
      AdvanceTo(finish);
      return url;
    }
  }

  size_t size() const override { return frontier_.size(); }

  bool StopRequested() const override {
    return options_.max_sim_time_sec > 0 && now_ >= options_.max_sim_time_sec;
  }

  double now() const { return now_; }
  double idle_slot_seconds() const { return idle_slot_seconds_; }
  size_t max_size_seen() const { return frontier_.max_size_seen(); }
  size_t slots() const { return slots_; }

  /// Includes the driver's timed series in this scheduler's snapshot
  /// payload (the series lives in the driver, but its rows are part of
  /// the politeness run state).
  void RegisterTimedSeries(Series* series) { timed_series_ = series; }

  std::string SnapshotKind() const override { return "politeness"; }

  Status SaveState(snapshot::SectionWriter* w) const override {
    // Timing parameters: a resume under different politeness timing
    // would silently produce a different schedule.
    w->U64(slots_);
    w->F64(options_.base_latency_sec);
    w->F64(options_.bandwidth_bytes_per_sec);
    w->F64(options_.min_access_interval_sec);
    w->F64(now_);
    w->F64(idle_slot_seconds_);
    // In-flight fetches, earliest finish first (copy-and-drain: the
    // priority queue has no iteration order of its own).
    auto active = active_;
    w->U64(active.size());
    while (!active.empty()) {
      w->F64(active.top().first);
      w->U32(active.top().second);
      active.pop();
    }
    LSWC_RETURN_IF_ERROR(frontier_.Save(w));
    w->U8(timed_series_ != nullptr ? 1 : 0);
    if (timed_series_ != nullptr) {
      snapshot::SaveSeries(*timed_series_, w);
    }
    return Status::OK();
  }

  Status RestoreState(snapshot::SectionReader* r) override {
    const uint64_t saved_slots = r->U64();
    const double base_latency = r->F64();
    const double bandwidth = r->F64();
    const double min_interval = r->F64();
    const double now = r->F64();
    const double idle_slot_seconds = r->F64();
    LSWC_RETURN_IF_ERROR(r->status());
    if (saved_slots != slots_ || base_latency != options_.base_latency_sec ||
        bandwidth != options_.bandwidth_bytes_per_sec ||
        min_interval != options_.min_access_interval_sec) {
      return Status::FailedPrecondition(
          "snapshot politeness timing parameters do not match this run");
    }
    const uint64_t active_count = r->U64();
    LSWC_RETURN_IF_ERROR(r->status());
    if (active_count > slots_) {
      return Status::Corruption("snapshot has more in-flight fetches than "
                                "connection slots");
    }
    std::vector<Event> events;
    events.reserve(static_cast<size_t>(active_count));
    for (uint64_t i = 0; i < active_count; ++i) {
      const double finish = r->F64();
      const PageId url = r->U32();
      events.emplace_back(finish, url);
    }
    LSWC_RETURN_IF_ERROR(r->status());
    LSWC_RETURN_IF_ERROR(frontier_.Restore(r));
    const bool has_series = r->U8() != 0;
    LSWC_RETURN_IF_ERROR(r->status());
    if (has_series) {
      if (timed_series_ == nullptr) {
        return Status::FailedPrecondition(
            "snapshot carries a timed series but none is registered");
      }
      LSWC_RETURN_IF_ERROR(snapshot::LoadSeriesInto(r, timed_series_));
    }
    active_ = {};
    for (const Event& e : events) active_.push(e);
    now_ = now;
    idle_slot_seconds_ = idle_slot_seconds;
    return Status::OK();
  }

 private:
  using Event = std::pair<double, PageId>;  // (finish time, url), min-heap.

  /// Advances the clock, charging idle slot-time against the politeness
  /// stall account.
  void AdvanceTo(double t) {
    if (t <= now_) return;
    idle_slot_seconds_ +=
        (t - now_) * static_cast<double>(slots_ - active_.size());
    now_ = t;
  }

  const WebGraph* graph_;
  const PolitenessOptions& options_;
  HostFrontier frontier_;
  const size_t slots_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> active_;
  double now_ = 0.0;
  double idle_slot_seconds_ = 0.0;
  Series* timed_series_ = nullptr;
  obs::Histogram* obs_fetch_latency_us_ = nullptr;
};

/// Observer that extends the engine's metric samples with the simulated
/// clock: one row per sampling point in the politeness result series.
class TimedSeriesObserver final : public CrawlObserver {
 public:
  TimedSeriesObserver(Series* series, const PolitenessScheduler* scheduler,
                      const MetricsRecorder* metrics)
      : series_(series), scheduler_(scheduler), metrics_(metrics) {}

  void OnSample(const SampleEvent& event) override {
    // The driver appends the final row unconditionally; skip the tail
    // sample to avoid doubling it.
    if (event.is_final) return;
    series_->AddRow(static_cast<double>(event.pages_crawled),
                    {scheduler_->now(), metrics_->harvest_pct(),
                     metrics_->coverage_pct(),
                     static_cast<double>(event.frontier_size)});
  }

 private:
  Series* series_;
  const PolitenessScheduler* scheduler_;
  const MetricsRecorder* metrics_;
};

}  // namespace

PolitenessSimulator::PolitenessSimulator(VirtualWebSpace* web,
                                         Classifier* classifier,
                                         const CrawlStrategy* strategy,
                                         PolitenessOptions options)
    : web_(web),
      classifier_(classifier),
      strategy_(strategy),
      options_(options) {}

StatusOr<PolitenessResult> PolitenessSimulator::Run() {
  if (options_.num_connections <= 0) {
    return Status::InvalidArgument("politeness: num_connections must be > 0");
  }
  // Infinite bandwidth is allowed: it makes every transfer instant.
  if (!(options_.bandwidth_bytes_per_sec > 0)) {
    return Status::InvalidArgument(
        "politeness: bandwidth_bytes_per_sec must be > 0");
  }
  // A NaN, infinite or negative time would stall the simulated clock or
  // run it backwards, and the summary would report NaN throughput.
  const std::pair<const char*, double> times[] = {
      {"min_access_interval_sec", options_.min_access_interval_sec},
      {"base_latency_sec", options_.base_latency_sec},
      {"max_sim_time_sec", options_.max_sim_time_sec}};
  for (const auto& [field, value] : times) {
    if (!std::isfinite(value) || value < 0) {
      return Status::InvalidArgument(std::string("politeness: ") + field +
                                     " must be finite and >= 0");
    }
  }
  PolitenessScheduler scheduler(&web_->graph(),
                                strategy_->num_priority_levels(), options_);

  obs::RunObs* obs = options_.enabled_obs();
  if (obs != nullptr) scheduler.AttachObs(&obs->registry);
  CrawlEngineOptions engine_options;
  engine_options.max_pages = options_.max_pages;
  engine_options.sample_interval = options_.sample_interval;
  engine_options.obs = obs;
  engine_options.journal = options_.journal;
  CrawlEngine engine(web_, classifier_, strategy_, &scheduler,
                     engine_options);
  Series series("pages_crawled",
                {"sim_time_sec", "harvest_pct", "coverage_pct", "queue_size"});
  scheduler.RegisterTimedSeries(&series);
  TimedSeriesObserver series_observer(&series, &scheduler, &engine.metrics());
  engine.AddObserver(&series_observer);
  LSWC_RETURN_IF_ERROR(RunEngine(&engine, options_, "politeness"));

  const MetricsRecorder& metrics = engine.metrics();
  const double now = scheduler.now();
  series.AddRow(static_cast<double>(metrics.pages_crawled()),
                {now, metrics.harvest_pct(), metrics.coverage_pct(),
                 static_cast<double>(scheduler.size())});

  PolitenessResult result{PolitenessSummary{}, std::move(series)};
  result.summary.pages_crawled = metrics.pages_crawled();
  result.summary.relevant_crawled = metrics.relevant_crawled();
  result.summary.sim_time_sec = now;
  result.summary.pages_per_sec =
      now > 0 ? static_cast<double>(metrics.pages_crawled()) / now : 0.0;
  result.summary.politeness_stall_fraction =
      now > 0 ? scheduler.idle_slot_seconds() /
                    (now * static_cast<double>(scheduler.slots()))
              : 0.0;
  result.summary.max_queue_size = scheduler.max_size_seen();
  result.summary.final_harvest_pct = metrics.harvest_pct();
  result.summary.final_coverage_pct = metrics.coverage_pct();
  return result;
}

}  // namespace lswc
