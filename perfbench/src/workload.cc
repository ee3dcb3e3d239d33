#include "workload.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>

#include "core/batch_frontier.h"
#include "core/checkpoint.h"
#include "core/classifier.h"
#include "core/crawl_engine.h"
#include "core/frontier_factory.h"
#include "core/sharded_engine.h"
#include "core/simulator.h"
#include "core/strategy.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/run_obs.h"
#include "store/memory_budget.h"
#include "store/mmap_link_db.h"
#include "store/stream_generator.h"
#include "util/series.h"
#include "util/string_util.h"
#include "webgraph/generator.h"

namespace lswc::bench {

namespace {

WorkloadSpec PopThai() {
  WorkloadSpec w;
  w.name = "pop_thai";
  w.dataset = "thai";
  w.pages = 1'000'000;
  w.classifier = "meta";
  // The fig3 cells, then the fig7 cells (prioritized limited distance).
  w.cells = {"bfs",        "hard",       "soft",      "plimited:1",
             "plimited:2", "plimited:3", "plimited:4"};
  return w;
}

WorkloadSpec ParseJapanese() {
  WorkloadSpec w;
  w.name = "parse_japanese";
  w.dataset = "japanese";
  w.pages = 15'000;
  w.classifier = "detector";
  w.render = RenderMode::kFull;
  w.parse_html = true;
  w.shards = 2;
  w.cells = {"soft"};
  return w;
}

WorkloadSpec BatchK16() {
  WorkloadSpec w;
  w.name = "batch_k16";
  w.dataset = "thai";
  w.pages = 60'000;
  w.classifier = "meta";
  w.frontier_kind = "batch";
  w.batch_k = 16;
  w.scorers = "lang:1.0,indegree:0.5";
  w.cells = {"soft"};
  return w;
}

WorkloadSpec OocJournal() {
  WorkloadSpec w;
  w.name = "ooc_journal";
  w.dataset = "thai";
  w.pages = 1'000'000;
  w.to_file = true;
  w.classifier = "meta";
  w.max_pages = 250'000;
  // 1 MiB: a 65536-URL resident frontier window, which the soft-focused
  // crawl's pending set outgrows, so the frontier spills; and a 4-block
  // disk link cache.
  w.memory_budget_mb = 1;
  w.journal = true;
  w.checkpoint_every = 50'000;
  w.cells = {"soft"};
  return w;
}

StatusOr<std::unique_ptr<Classifier>> MakeClassifier(const std::string& name,
                                                     Language target) {
  std::unique_ptr<Classifier> classifier;
  if (name == "meta") classifier = std::make_unique<MetaTagClassifier>(target);
  if (name == "detector") {
    classifier = std::make_unique<DetectorClassifier>(target);
  }
  if (classifier != nullptr) return classifier;
  return Status::InvalidArgument("unknown classifier " + name);
}

StatusOr<std::unique_ptr<CrawlStrategy>> MakeStrategy(const std::string& s) {
  std::unique_ptr<CrawlStrategy> strategy;
  if (s == "bfs") strategy = std::make_unique<BreadthFirstStrategy>();
  if (s == "hard") strategy = std::make_unique<HardFocusedStrategy>();
  if (s == "soft") strategy = std::make_unique<SoftFocusedStrategy>();
  if (StartsWith(s, "plimited:")) {
    const auto n = ParseUint64(std::string_view(s).substr(9));
    if (n.has_value() && *n <= 254) {
      strategy = std::make_unique<LimitedDistanceStrategy>(
          static_cast<int>(*n), true);
    }
  }
  if (strategy != nullptr) return strategy;
  return Status::InvalidArgument("unknown strategy " + s);
}

/// One engine of either kind, with the frontier it runs on.
struct Engine {
  FrontierSelection selection;  // Serial engine only.
  std::unique_ptr<FrontierPopScheduler> pop;
  std::unique_ptr<TimedScheduler> timed;
  std::unique_ptr<CrawlEngine> serial;
  std::unique_ptr<ShardedCrawlEngine> sharded;

  Checkpointable* checkpointable() {
    if (serial != nullptr) return serial.get();
    return sharded.get();
  }
  void AddObserver(CrawlObserver* observer) {
    if (serial != nullptr) {
      serial->AddObserver(observer);
    } else {
      sharded->AddObserver(observer);
    }
  }
  Status Run() { return serial != nullptr ? serial->Run() : sharded->Run(); }
  Status Resume(const std::string& path) {
    return serial != nullptr ? serial->ResumeFromSnapshot(path)
                             : sharded->ResumeFromSnapshot(path);
  }
  const MetricsRecorder& metrics() const {
    return serial != nullptr ? serial->metrics() : sharded->metrics();
  }
};

struct EngineInputs {
  VirtualWebSpace* web = nullptr;
  Classifier* classifier = nullptr;
  const CrawlStrategy* strategy = nullptr;
  obs::JournalWriter* journal = nullptr;
  /// Receives the batch frontier's counters (may be null).
  obs::MetricsRegistry* batch_registry = nullptr;
};

/// Builds the engine Simulator::Run builds for the same options, but from
/// the public constructors with the frontier behind a TimedScheduler, so
/// that the traced pass can time it. The traced pass checks its outcome
/// against the Simulator's, so a drift between the two fails the run.
StatusOr<std::unique_ptr<Engine>> BuildEngine(const WorkloadSpec& spec,
                                              const Dataset& dataset,
                                              const EngineInputs& in) {
  const WebGraph& graph = dataset.graph;
  const bool batch = spec.frontier_kind == "batch";
  const uint64_t batch_k =
      batch ? (spec.batch_k == 0 ? kDefaultBatchK : spec.batch_k) : 0;
  const std::string scorer_spec =
      batch ? (spec.scorers.empty() ? kDefaultScorerSpec : spec.scorers) : "";

  FrontierOptions frontier;
  frontier.kind = spec.frontier_kind;
  frontier.batch_k = spec.batch_k;
  frontier.scorers = spec.scorers;
  frontier.scorer_seed = graph.generator_seed();
  frontier.graph = &graph;
  if (spec.memory_budget_mb != 0 && spec.shards == 0 && !batch) {
    frontier.memory_budget =
        store::PlanMemoryBudget(spec.memory_budget_mb).frontier_urls;
  }

  auto engine = std::make_unique<Engine>();
  if (spec.shards != 0) {
    ShardedEngineOptions options;
    options.num_shards = spec.shards;
    options.max_pages = spec.max_pages;
    options.parse_html = spec.parse_html;
    options.journal = in.journal;
    options.batch_k = batch_k;
    options.scorer_spec = scorer_spec;
    options.dataset_file = dataset.file;
    options.memory_budget_mb = spec.memory_budget_mb;
    auto created = ShardedCrawlEngine::Create(in.web, in.classifier,
                                              in.strategy, frontier, options);
    LSWC_RETURN_IF_ERROR(created.status());
    engine->sharded = std::move(created).value();
    return engine;
  }

  auto selection = MakeFrontier(*in.strategy, frontier);
  LSWC_RETURN_IF_ERROR(selection.status());
  engine->selection = std::move(selection).value();
  engine->pop =
      std::make_unique<FrontierPopScheduler>(engine->selection.frontier.get());
  engine->timed = std::make_unique<TimedScheduler>(engine->pop.get(),
                                                   engine->selection.batch);
  CrawlEngineOptions options;
  options.max_pages = spec.max_pages;
  options.parse_html = spec.parse_html;
  options.journal = in.journal;
  options.batch_k = batch_k;
  options.scorer_spec = scorer_spec;
  options.dataset_file = dataset.file;
  options.memory_budget_mb = spec.memory_budget_mb;
  engine->serial = std::make_unique<CrawlEngine>(
      in.web, in.classifier, in.strategy, engine->timed.get(), options);
  BatchFrontier* batch_frontier = engine->selection.batch;
  if (batch_frontier != nullptr && in.journal != nullptr) {
    batch_frontier->set_journal(in.journal);
  }
  if (batch_frontier != nullptr && in.batch_registry != nullptr) {
    batch_frontier->AttachObs(in.batch_registry, nullptr);
  }
  return engine;
}

StatusOr<std::unique_ptr<obs::JournalWriter>> OpenJournal(
    const WorkloadSpec& spec, const WebGraph& graph, const std::string& path,
    const std::string& strategy, const std::string& classifier) {
  const bool batch = spec.frontier_kind == "batch";
  obs::JournalMeta meta;
  meta.num_pages = graph.num_pages();
  meta.num_hosts = graph.num_hosts();
  meta.num_links = graph.num_links();
  meta.generator_seed = graph.generator_seed();
  meta.target_language = std::string(LanguageName(graph.target_language()));
  meta.strategy = strategy;
  meta.classifier = classifier;
  meta.regime = batch ? "batch" : "pop";
  meta.batch_k =
      batch ? (spec.batch_k == 0 ? kDefaultBatchK : spec.batch_k) : 0;
  meta.scorer_spec =
      batch ? (spec.scorers.empty() ? kDefaultScorerSpec : spec.scorers) : "";
  auto writer = obs::JournalWriter::Open(path, std::move(meta));
  LSWC_RETURN_IF_ERROR(writer.status());
  (*writer)->set_host_lookup(
      [&graph](uint32_t url) { return graph.page(url).host; });
  return writer;
}

/// mincore() over a fresh mapping of `path` (-1 when it cannot be read).
double CacheResidentFraction(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return -1.0;
  struct stat st {};
  double frac = -1.0;
  if (fstat(fd, &st) == 0 && st.st_size > 0) {
    const size_t size = static_cast<size_t>(st.st_size);
    void* map = mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (map != MAP_FAILED) {
      const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
      std::vector<unsigned char> resident((size + page - 1) / page);
      if (mincore(map, size, resident.data()) == 0) {
        size_t in_core = 0;
        for (unsigned char r : resident) in_core += r & 1;
        frac = static_cast<double>(in_core) /
               static_cast<double>(resident.size());
      }
      munmap(map, size);
    }
  }
  close(fd);
  return frac;
}

CellOutcome OutcomeOf(const MetricsRecorder& metrics) {
  CellOutcome outcome;
  outcome.series_hash = Fnv1aHash(metrics.series());
  outcome.pages = metrics.pages_crawled();
  outcome.relevant = metrics.relevant_crawled();
  outcome.harvest_pct = metrics.harvest_pct();
  outcome.coverage_pct = metrics.coverage_pct();
  return outcome;
}

CellOutcome OutcomeOf(const SimulationResult& result) {
  CellOutcome outcome;
  outcome.series_hash = Fnv1aHash(result.series);
  outcome.pages = result.summary.pages_crawled;
  outcome.relevant = result.summary.relevant_crawled;
  outcome.harvest_pct = result.summary.final_harvest_pct;
  outcome.coverage_pct = result.summary.final_coverage_pct;
  return outcome;
}

std::unique_ptr<LinkDb> MakeLinkDb(const Dataset& dataset) {
  if (dataset.stored != nullptr) {
    return std::make_unique<store::MmapLinkDb>(*dataset.stored);
  }
  return std::make_unique<InMemoryLinkDb>(&dataset.graph);
}

/// Notes when the crawl reports its first fetch: the end of set-up.
class FirstFetchClock final : public CrawlObserver {
 public:
  void OnFetch(const FetchEvent&) override {
    if (ns_ == 0) ns_ = NowNs();
  }
  uint64_t ns() const { return ns_; }

 private:
  uint64_t ns_ = 0;
};

/// Splits a cell's time at its first fetch event (at `end` if none).
void SplitAtFirstFetch(uint64_t start, uint64_t first_fetch, uint64_t end,
                       CellRun* run) {
  const uint64_t split = first_fetch != 0 ? first_fetch : end;
  run->construct_s = static_cast<double>(split - start) * 1e-9;
  run->crawl_s = static_cast<double>(end - split) * 1e-9;
}

/// Saves the finished crawl, restores it into a freshly built engine of
/// the same configuration, and checks the restored series.
Status SnapshotRoundTrip(const WorkloadSpec& spec, const Dataset& dataset,
                         Engine* engine, const EngineInputs& in,
                         const std::string& path, CellTrace* trace) {
  uint64_t start = NowNs();
  LSWC_RETURN_IF_ERROR(
      engine->checkpointable()->SaveSnapshot(path, &trace->snapshot_bytes));
  trace->snapshot_save_ms = SecondsSince(start) * 1e3;

  EngineInputs fresh = in;
  fresh.journal = nullptr;
  fresh.batch_registry = nullptr;
  auto restored = BuildEngine(spec, dataset, fresh);
  LSWC_RETURN_IF_ERROR(restored.status());
  start = NowNs();
  LSWC_RETURN_IF_ERROR((*restored)->Resume(path));
  trace->snapshot_restore_ms = SecondsSince(start) * 1e3;
  trace->snapshot_roundtrip_ok =
      OutcomeOf((*restored)->metrics()) == OutcomeOf(engine->metrics());
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return Status::OK();
}

Status RunCellImpl(const WorkloadSpec& spec, const std::string& cell,
                   const Dataset& dataset, const std::string& workdir,
                   obs::RunObs* obs, CellRun* run) {
  const uint64_t start = NowNs();
  const WebGraph& graph = dataset.graph;
  const std::string label = SanitizeSnapshotLabel(cell);
  auto classifier = MakeClassifier(spec.classifier, graph.target_language());
  LSWC_RETURN_IF_ERROR(classifier.status());
  auto strategy = MakeStrategy(cell);
  LSWC_RETURN_IF_ERROR(strategy.status());
  std::unique_ptr<LinkDb> link_db = MakeLinkDb(dataset);
  VirtualWebSpace web(&graph, link_db.get(), spec.render);

  std::unique_ptr<obs::JournalWriter> journal;
  const std::string journal_path = workdir + "/" + label + ".jrnl";
  if (spec.journal) {
    auto writer = OpenJournal(spec, graph, journal_path, cell,
                              (*classifier)->name());
    LSWC_RETURN_IF_ERROR(writer.status());
    journal = std::move(writer).value();
  }

  FirstFetchClock first_fetch;
  SimulationOptions options;
  options.max_pages = spec.max_pages;
  options.parse_html = spec.parse_html;
  options.memory_budget_mb = spec.memory_budget_mb;
  options.dataset_file = dataset.file;
  options.frontier_kind = spec.frontier_kind;
  options.batch_k = spec.batch_k;
  options.scorers = spec.scorers;
  options.shards = spec.shards;
  options.observers = {&first_fetch};
  options.checkpoint_every_pages = spec.checkpoint_every;
  options.snapshot_dir = workdir;
  options.snapshot_label = label;
  options.obs = obs;
  options.journal = journal.get();
  Simulator simulator(&web, classifier->get(), strategy->get(), options);
  auto result = simulator.Run();
  LSWC_RETURN_IF_ERROR(result.status());
  if (journal != nullptr) LSWC_RETURN_IF_ERROR(journal->Finalize());
  SplitAtFirstFetch(start, first_fetch.ns(), NowNs(), run);
  run->outcome = OutcomeOf(*result);

  std::error_code ec;
  std::filesystem::remove(workdir + "/" + label + ".snap", ec);
  std::filesystem::remove(journal_path, ec);
  return Status::OK();
}

Status RunTracedCellImpl(const WorkloadSpec& spec, const std::string& cell,
                         const Dataset& dataset, const std::string& workdir,
                         CellTrace* trace, CellRun* run) {
  const uint64_t start = NowNs();
  const WebGraph& graph = dataset.graph;
  const std::string label = SanitizeSnapshotLabel(cell);
  const bool closure = cell == kClosureCell;

  auto classifier = MakeClassifier(spec.classifier, graph.target_language());
  LSWC_RETURN_IF_ERROR(classifier.status());
  auto strategy = MakeStrategy(cell);
  LSWC_RETURN_IF_ERROR(strategy.status());
  std::unique_ptr<LinkDb> link_db = MakeLinkDb(dataset);
  const std::string classifier_name = (*classifier)->name();
  TimedClassifier judge(std::move(classifier).value(), &trace->judge);
  TimedStrategy timed_strategy(strategy->get());
  TimedLinkDb timed_link_db(link_db.get());
  VirtualWebSpace web(&graph, &timed_link_db, spec.render);

  std::unique_ptr<obs::JournalWriter> journal;
  // Traced runs keep their journal for the replay under a name of its own.
  const std::string journal_path = workdir + "/" + label + ".traced.jrnl";
  if (spec.journal) {
    auto writer =
        OpenJournal(spec, graph, journal_path, cell, classifier_name);
    LSWC_RETURN_IF_ERROR(writer.status());
    journal = std::move(writer).value();
  }

  obs::MetricsRegistry batch_registry;
  EngineInputs in;
  in.web = &web;
  in.classifier = &judge;
  in.strategy = &timed_strategy;
  in.journal = journal.get();
  in.batch_registry = &batch_registry;
  auto built = BuildEngine(spec, dataset, in);
  LSWC_RETURN_IF_ERROR(built.status());
  Engine& engine = **built;

  std::unique_ptr<CheckpointObserver> checkpoint;
  std::unique_ptr<TimedObserver> timed_checkpoint;
  if (spec.checkpoint_every != 0) {
    checkpoint = std::make_unique<CheckpointObserver>(
        engine.checkpointable(), spec.checkpoint_every,
        workdir + "/" + label + ".snap");
    timed_checkpoint = std::make_unique<TimedObserver>(checkpoint.get());
    engine.AddObserver(timed_checkpoint.get());
  }
  FirstFetchClock first_fetch;
  engine.AddObserver(&first_fetch);
  FetchOrderRecorder order;
  if (closure) engine.AddObserver(&order);

  LSWC_RETURN_IF_ERROR(engine.Run());
  if (journal != nullptr) LSWC_RETURN_IF_ERROR(journal->Finalize());
  SplitAtFirstFetch(start, first_fetch.ns(), NowNs(), run);
  if (checkpoint != nullptr) LSWC_RETURN_IF_ERROR(checkpoint->status());
  run->outcome = OutcomeOf(engine.metrics());

  std::error_code ec;
  std::filesystem::remove(workdir + "/" + label + ".snap", ec);
  const bool keep_journal = closure && journal != nullptr;
  if (!keep_journal) std::filesystem::remove(journal_path, ec);
  trace->onlink = timed_strategy.span();
  trace->enqueued = timed_strategy.enqueued();
  trace->linkdb = timed_link_db.span();
  trace->links = timed_link_db.links();
  if (engine.timed != nullptr) trace->frontier = engine.timed->spans();
  if (timed_checkpoint != nullptr) trace->checkpoint = timed_checkpoint->span();
  trace->scored_urls = batch_registry.counter("frontier.scored_urls")->value();
  trace->selected_urls =
      batch_registry.counter("frontier.selected_urls")->value();
  trace->rescore_rounds =
      batch_registry.counter("frontier.rescore_rounds")->value();
  if (closure) {
    trace->fetch_order = order.order();
    if (keep_journal) trace->journal_path = journal_path;
    LSWC_RETURN_IF_ERROR(SnapshotRoundTrip(spec, dataset, &engine, in,
                                           workdir + "/closure.snap", trace));
  }
  return Status::OK();
}

}  // namespace

StatusOr<WorkloadSpec> MakeWorkload(const std::string& name) {
  if (name == "pop_thai") return PopThai();
  if (name == "parse_japanese") return ParseJapanese();
  if (name == "batch_k16") return BatchK16();
  if (name == "ooc_journal") return OocJournal();
  return Status::InvalidArgument("unknown workload " + name);
}

StatusOr<std::unique_ptr<Dataset>> SetUpDataset(const WorkloadSpec& spec,
                                                uint64_t seed,
                                                const std::string& workdir) {
  SyntheticWebOptions options = spec.dataset == "japanese"
                                    ? JapaneseLikeOptions(spec.pages, seed)
                                    : ThaiLikeOptions(spec.pages, seed);
  auto dataset = std::make_unique<Dataset>();
  uint64_t start = NowNs();
  if (!spec.to_file) {
    auto graph = GenerateWebGraph(options);
    LSWC_RETURN_IF_ERROR(graph.status());
    dataset->graph = std::move(graph).value();
    dataset->generate_s = SecondsSince(start);
    return dataset;
  }
  dataset->file = workdir + "/dataset.lswc";
  LSWC_RETURN_IF_ERROR(store::GenerateWebGraphToFile(options, dataset->file));
  dataset->generate_s = SecondsSince(start);
  dataset->cache_resident_frac = CacheResidentFraction(dataset->file);
  start = NowNs();
  auto stored = store::StoredWebGraph::Open(dataset->file);
  LSWC_RETURN_IF_ERROR(stored.status());
  dataset->stored = std::move(stored).value();
  dataset->graph = dataset->stored->NewView();
  dataset->open_s = SecondsSince(start);
  return dataset;
}

CellRun RunCell(const WorkloadSpec& spec, const std::string& cell,
                const Dataset& dataset, const std::string& workdir,
                obs::RunObs* obs) {
  CellRun run;
  run.status = RunCellImpl(spec, cell, dataset, workdir, obs, &run);
  return run;
}

CellRun RunTracedCell(const WorkloadSpec& spec, const std::string& cell,
                      const Dataset& dataset, const std::string& workdir,
                      CellTrace* trace) {
  CellRun run;
  run.status =
      RunTracedCellImpl(spec, cell, dataset, workdir, trace, &run);
  return run;
}

}  // namespace lswc::bench
