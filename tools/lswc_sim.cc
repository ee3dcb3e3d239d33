// lswc_sim — the command-line front end to the whole library: pick a
// dataset (a preset generator, an LSWCDS1 file or a text crawl log), a
// classifier, one or more strategies and a fidelity mode, run the
// simulation(s), and get the summary plus a gnuplot-ready series.
//
//   lswc_sim --dataset=thai --pages=1000000 --strategy=plimited:2
//   lswc_sim --log=crawl.txt --classifier=detector --render=head
//            --strategy=soft --out=run.dat
//   lswc_sim --dataset=thai --strategy=bfs,hard,soft --jobs=3
//   lswc_sim --dataset=thai --strategy=soft --politeness=16,1.0
//
// Strategies: bfs | hard | soft | limited:N | plimited:N | context:L |
//             hub:K (pilot crawl + HITS + boosted crawl). A
//             comma-separated list runs each strategy as an independent
//             simulation, fanned across --jobs workers; summaries print
//             in list order and --out writes per-strategy suffixed
//             files.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/context_graph.h"
#include "core/crawl_observer.h"
#include "core/distiller.h"
#include "core/experiment_runner.h"
#include "core/front_end.h"
#include "core/politeness.h"
#include "core/simulator.h"
#include "obs/journal.h"
#include "obs/run_obs.h"
#include "obs/telemetry_plane.h"
#include "store/memory_budget.h"
#include "store/mmap_link_db.h"
#include "store/stored_web_graph.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "webgraph/generator.h"
#include "webgraph/link_db.h"
#include "webgraph/text_log.h"

namespace lswc {
namespace {

struct Args {
  DatasetFlags dataset{.pages = 200'000};
  /// Replay a text crawl log instead of generating (--log).
  std::string log_path;
  std::string classifier = "meta";
  std::string strategy = "soft";
  std::string render = "auto";
  /// What --max-pages, --parse-html, --frontier-capacity, --frontier,
  /// --batch-k, --scorers and --shard-batch write: the options every
  /// strategy's run starts from (--max-pages holds for both simulators).
  SimulationOptions run;
  /// --politeness=CONNS,INTERVAL: run the timed simulator instead.
  bool politeness = false;
  PolitenessOptions polite;
  std::string out_path;
  /// Decision journal output (empty = no journaling). Strategy lists
  /// suffix the path per strategy, like --out.
  std::string journal;
  ParallelFlags parallel;
  CheckpointFlags checkpoint{.resume_file = true};
  ObsOutputFlags obs_out;
  /// Live telemetry plane (see docs/ARCHITECTURE.md "Telemetry
  /// plane"): status endpoint, stall watchdog, per-run flight recorder.
  obs::TelemetryOptions telemetry;
  /// Fault injection for the watchdog CI drill: freeze the crawl thread
  /// forever once N pages have been fetched (0 = never). The process
  /// stays alive, so the stall watchdog's deadline elapses and its dump
  /// path fires — SIGSTOP would suspend the watchdog thread too.
  uint64_t stall_after = 0;
};

/// Why a combination of flags is refused ("" when it is fine): flags
/// the chosen simulator would ignore are errors, not silently dropped.
std::string CheckCombination(const Args& args) {
  if (!args.journal.empty() && !args.checkpoint.resume.empty()) {
    return "--journal and --resume are exclusive: a journal must cover the "
           "run from its first seed, and a resumed crawl's earlier "
           "decisions are gone";
  }
  if (!args.dataset.dataset_file.empty() && !args.log_path.empty()) {
    return "--dataset-file and --log are exclusive";
  }
  if (args.parallel.shards != 0 && args.politeness) {
    return "--shards applies to the timeless simulator only; the politeness "
           "simulator has its own per-host scheduler";
  }
  const SimulationOptions& run = args.run;
  if (run.shard_batch != 0 && args.parallel.shards == 0) {
    return "--shard-batch requires --shards";
  }
  if (args.politeness && run.frontier_capacity != 0) {
    return "--frontier-capacity applies to the timeless simulator only; "
           "--politeness keeps unbounded per-host queues";
  }
  if (args.politeness && run.parse_html) {
    return "--parse-html applies to the timeless simulator only; "
           "--politeness replays the link database";
  }
  if (run.frontier_kind != "batch") {
    if (run.batch_k != 0) return "--batch-k requires --frontier=batch";
    if (!run.scorers.empty()) return "--scorers requires --frontier=batch";
  } else if (args.politeness) {
    return "--frontier=batch applies to the timeless simulator only; "
           "--politeness pops from a per-host event queue";
  } else if (run.frontier_capacity != 0) {
    return "--frontier=batch is incompatible with --frontier-capacity: "
           "batch selection ranks the complete pending set and never sheds "
           "URLs";
  }
  return "";
}

void ParseArgs(int argc, char** argv, Args* args) {
  FlagTable table("[options]");
  AddGeneratorFlags(&table, &args->dataset, /*with_preset=*/true);
  table.String("--log", "FILE", "replay a text crawl log", &args->log_path);
  AddReplayFlags(&table, &args->dataset, /*with_disk=*/true);
  table.Choice("--classifier", {"meta", "detector", "composite", "oracle"},
               "page classifier (default meta)", &args->classifier);
  table.String("--strategy", "SPEC",
               "bfs|hard|soft|[p]limited:N|context:L|hub:K, or a list",
               &args->strategy);
  table.Choice("--render", {"auto", "none", "head", "full"},
               "page-byte fidelity (default auto)", &args->render);
  SimulationOptions* run = &args->run;
  table.Switch("--parse-html", "extract links from rendered HTML",
               &run->parse_html);
  table.Int("--max-pages", "N", "crawl budget (default: exhaust)",
            &run->max_pages);
  table.Int("--frontier-capacity", "N",
            "bounded URL queue (default: unlimited)", &run->frontier_capacity);
  table.Choice("--frontier", {"pop", "batch"},
               "pop-order queues (default) or top-K batches",
               &run->frontier_kind);
  table.Int("--batch-k", "N", "URLs per batch (default 256)", &run->batch_k,
            1);
  table.String("--scorers", "SPEC",
               "batch scorer weights (default lang:1.0,parent:0.5)",
               &run->scorers);
  AddParallelFlags(&table, &args->parallel);
  table.Int("--shard-batch", "N", "speculative visits per sharded round",
            &run->shard_batch, 1);
  table.Custom(
      "--politeness", "CONNS,INTERVAL",
      "timed run: connections, per-host interval (s)",
      [args](std::string_view value) {
        const std::vector<std::string_view> parts = Split(value, ',');
        if (parts.size() != 2) return std::string("expected CONNS,INTERVAL");
        args->politeness = true;
        std::string error =
            ParseFlagInt(parts[0], &args->polite.num_connections, 1);
        if (error.empty()) {
          error = ParseFlagDouble(parts[1],
                                  &args->polite.min_access_interval_sec, 0.0);
        }
        return error;
      });
  table.String("--out", "FILE", "write the metric series as .dat",
               &args->out_path);
  table.String("--journal", "FILE",
               "journal every crawl decision (see lswc_journal)",
               &args->journal);
  AddCheckpointFlags(&table, &args->checkpoint);
  AddObsOutputFlags(&table, &args->obs_out);
  obs::AddTelemetryFlags(&table, &args->telemetry);
  table.Int("--stall-after", "N", "fault injection: freeze after N fetches",
            &args->stall_after, 1);
  table.AddCheck([args] { return CheckCombination(*args); });
  table.ParseOrExit(argc, argv);
}

/// --stall-after fault injection: after N fetches the observer sleeps
/// forever on the crawl thread, so no further fetch completes, the
/// telemetry heartbeat stops, and the stall watchdog fires — the CI
/// drill for the watchdog + flight-recorder dump. (SIGSTOP can't stage
/// this: it would suspend the watchdog thread along with the crawl.)
class StallInjector final : public CrawlObserver {
 public:
  explicit StallInjector(uint64_t after) : after_(after) {}

  void OnFetch(const FetchEvent& event) override {
    if (after_ == 0 || ++fetches_ < after_) return;
    std::fprintf(stderr, "STALL-INJECT frozen after %llu fetches\n",
                 static_cast<unsigned long long>(event.pages_crawled));
    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
  }

 private:
  const uint64_t after_;
  uint64_t fetches_ = 0;
};

/// The graph plus, for --store=mmap replays, the StoredWebGraph that
/// owns the mapping every per-strategy MmapLinkDb shares.
struct LoadedDataset {
  WebGraph graph;
  std::unique_ptr<store::StoredWebGraph> stored;
};

StatusOr<LoadedDataset> LoadGraph(const Args& args) {
  const DatasetFlags& dataset = args.dataset;
  if (!dataset.dataset_file.empty()) {
    if (dataset.store == "mmap") {
      auto stored = store::StoredWebGraph::Open(dataset.dataset_file);
      LSWC_RETURN_IF_ERROR(stored.status());
      WebGraph graph = (*stored)->NewView();
      return LoadedDataset{std::move(graph), std::move(stored).value()};
    }
    // "ram" and "disk" both hold the graph on the heap; disk differs
    // only in serving links through DiskLinkDb (per strategy, below).
    auto graph = store::StoredWebGraph::ReadInRam(dataset.dataset_file);
    LSWC_RETURN_IF_ERROR(graph.status());
    return LoadedDataset{std::move(graph).value(), nullptr};
  }
  auto graph = args.log_path.empty()
                   ? GenerateWebGraph(dataset.GeneratorOptions(dataset.preset))
                   : ReadTextLogFile(args.log_path);
  LSWC_RETURN_IF_ERROR(graph.status());
  return LoadedDataset{std::move(graph).value(), nullptr};
}

std::unique_ptr<Classifier> MakeClassifier(const std::string& name,
                                           Language target) {
  if (name == "detector") return std::make_unique<DetectorClassifier>(target);
  if (name == "composite") return std::make_unique<CompositeClassifier>(target);
  if (name == "oracle") return std::make_unique<OracleClassifier>(target);
  return std::make_unique<MetaTagClassifier>(target);
}

StatusOr<std::unique_ptr<CrawlStrategy>> MakeStrategy(
    const std::string& s, const WebGraph& graph, Classifier* classifier) {
  if (s == "bfs") return std::unique_ptr<CrawlStrategy>(new BreadthFirstStrategy());
  if (s == "hard") return std::unique_ptr<CrawlStrategy>(new HardFocusedStrategy());
  if (s == "soft") return std::unique_ptr<CrawlStrategy>(new SoftFocusedStrategy());
  const size_t colon = s.find(':');
  const std::string kind = s.substr(0, colon);
  std::optional<uint64_t> param;
  if (colon != std::string::npos) {
    param = ParseUint64(std::string_view(s).substr(colon + 1));
  }
  if (kind == "limited" || kind == "plimited") {
    if (!param || *param > 254) {
      return Status::InvalidArgument("strategy needs :N in [0,254]");
    }
    return std::unique_ptr<CrawlStrategy>(new LimitedDistanceStrategy(
        static_cast<int>(*param), kind == "plimited"));
  }
  if (kind == "context") {
    if (!param || *param == 0 || *param > 64) {
      return Status::InvalidArgument("context needs :L in [1,64]");
    }
    return std::unique_ptr<CrawlStrategy>(new ContextGraphStrategy(
        ComputeContextLayers(graph), static_cast<int>(*param)));
  }
  if (kind == "hub") {
    if (!param || *param == 0) {
      return Status::InvalidArgument("hub needs :K > 0");
    }
    // Pilot crawl to collect the relevant set, then distill.
    const SoftFocusedStrategy pilot;
    auto pilot_run = RunSimulation(graph, classifier, pilot);
    if (!pilot_run.ok()) return pilot_run.status();
    std::vector<PageId> relevant;
    for (PageId p = 0; p < graph.num_pages(); ++p) {
      if (graph.IsRelevant(p)) relevant.push_back(p);
    }
    auto scores = ComputeHits(graph, relevant);
    if (!scores.ok()) return scores.status();
    return std::unique_ptr<CrawlStrategy>(new HubBoostStrategy(
        graph.num_pages(), TopHubs(*scores, *param)));
  }
  return Status::InvalidArgument("unknown strategy " + s);
}

/// --render, with "auto" resolved: full pages for --parse-html, head
/// bytes for the classifiers that read them, none otherwise.
RenderMode ResolveRender(const Args& args) {
  if (args.render == "none") return RenderMode::kNone;
  if (args.render == "head") return RenderMode::kHead;
  if (args.render == "full" || args.run.parse_html) return RenderMode::kFull;
  return args.classifier == "detector" || args.classifier == "composite"
             ? RenderMode::kHead
             : RenderMode::kNone;
}

/// Runs one strategy spec end to end (own classifier, strategy, web
/// view) and appends the human-readable summary to `*output`. Safe to
/// call concurrently for different specs.
Status RunOneStrategy(const Args& args, const WebGraph& graph,
                      const store::StoredWebGraph* stored,
                      const std::string& strategy_spec,
                      const std::string& out_path,
                      const std::string& journal_path, obs::RunObs* obs,
                      std::string* output) {
  const std::unique_ptr<Classifier> classifier =
      MakeClassifier(args.classifier, graph.target_language());
  auto strategy = MakeStrategy(strategy_spec, graph, classifier.get());
  LSWC_RETURN_IF_ERROR(strategy.status());

  // The run options both simulators share (the DriverOptions base)
  // plus the timeless simulator's own. Each strategy snapshots to, and
  // resumes from, its own sanitized label.
  StallInjector stall_injector(args.stall_after);
  SimulationOptions options = args.run;
  options.checkpoint_every_pages = args.checkpoint.every;
  options.snapshot_dir = args.checkpoint.snapshot_dir;
  options.snapshot_label = SanitizeSnapshotLabel(strategy_spec);
  options.resume_path = ResumePathFor(args.checkpoint, strategy_spec);
  options.obs = obs;
  options.progress_every = args.obs_out.progress_every;
  options.run_label = strategy_spec;
  if (args.stall_after != 0) options.observers.push_back(&stall_injector);
  // Each strategy run gets its own telemetry board when the plane is
  // configured (the custom RunSpec path bypasses ExperimentRunner's
  // auto-wiring, so the slot is filled here).
  if (obs::TelemetryPlane::Instance().configured()) {
    options.telemetry =
        obs::TelemetryPlane::Instance().CreateContext(strategy_spec);
  }
  options.shards = args.parallel.shards;
  options.dataset_file = args.dataset.dataset_file;
  options.memory_budget_mb = args.dataset.memory_budget_mb;
  if (!options.resume_path.empty()) {
    *output += StringPrintf("resuming from %s\n", options.resume_path.c_str());
  }

  // Open the decision journal before anything runs so a setup failure
  // (bad path, full disk) aborts the run instead of losing the record.
  std::unique_ptr<obs::JournalWriter> journal;
  if (!journal_path.empty()) {
    auto writer = OpenRunJournal(journal_path, graph, strategy_spec,
                                 classifier->name(), options, args.politeness);
    LSWC_RETURN_IF_ERROR(writer.status());
    journal = std::move(writer).value();
    options.journal = journal.get();
  }

  // Link DB per backend: mmap serves straight from the shared dataset
  // mapping, disk streams target blocks through an LRU cache (sized
  // from the budget plan when one is set), everything else replays from
  // the in-memory graph.
  std::unique_ptr<LinkDb> link_db;
  if (stored != nullptr) {
    link_db = std::make_unique<store::MmapLinkDb>(*stored);
  } else if (!args.dataset.dataset_file.empty() &&
             args.dataset.store == "disk") {
    DiskLinkDb::Options cache;
    if (args.dataset.memory_budget_mb != 0) {
      const store::MemoryBudgetPlan plan =
          store::PlanMemoryBudget(args.dataset.memory_budget_mb);
      cache.block_words = plan.link_cache_block_words;
      cache.max_cached_blocks = plan.linkdb_cache_blocks;
    }
    auto disk = DiskLinkDb::Open(args.dataset.dataset_file, cache);
    LSWC_RETURN_IF_ERROR(disk.status());
    link_db = std::move(disk).value();
  } else {
    link_db = std::make_unique<InMemoryLinkDb>(&graph);
  }
  if (obs != nullptr && obs->enabled) {
    link_db->AttachObs(&obs->registry);
    if (stored != nullptr) stored->AttachObs(&obs->registry);
  }
  VirtualWebSpace web(&graph, link_db.get(), ResolveRender(args));

  // What each simulator ends with: the journal, its summary, then the
  // series.
  auto finish = [&](const std::string& summary, const Series& series) {
    if (journal != nullptr) {
      LSWC_RETURN_IF_ERROR(journal->Finalize());
      *output += StringPrintf("journal -> %s\n", journal_path.c_str());
    }
    *output += summary;
    if (!out_path.empty()) {
      LSWC_RETURN_IF_ERROR(series.WriteDatFile(out_path));
      *output += StringPrintf("series -> %s\n", out_path.c_str());
    }
    return Status::OK();
  };

  if (args.politeness) {
    PolitenessOptions polite = args.polite;
    static_cast<DriverOptions&>(polite) = options;
    PolitenessSimulator sim(&web, classifier.get(), strategy->get(), polite);
    auto r = sim.Run();
    LSWC_RETURN_IF_ERROR(r.status());
    const PolitenessSummary& s = r->summary;
    return finish(
        StringPrintf("strategy %s: crawled %llu in %.0fs sim time "
                     "(%.1f pages/s, stall %.1f%%)\n"
                     "harvest %.1f%% | coverage %.1f%% | max queue %zu\n",
                     (*strategy)->name().c_str(),
                     static_cast<unsigned long long>(s.pages_crawled),
                     s.sim_time_sec, s.pages_per_sec,
                     100.0 * s.politeness_stall_fraction, s.final_harvest_pct,
                     s.final_coverage_pct, s.max_queue_size),
        r->series);
  }

  Simulator sim(&web, classifier.get(), strategy->get(), options);
  auto r = sim.Run();
  LSWC_RETURN_IF_ERROR(r.status());
  const SimulationSummary& s = r->summary;
  std::string summary = StringPrintf(
      "strategy %s with %s classifier:\n"
      "crawled %llu | harvest %.1f%% | coverage %.1f%% | max queue %zu",
      (*strategy)->name().c_str(), classifier->name().c_str(),
      static_cast<unsigned long long>(s.pages_crawled), s.final_harvest_pct,
      s.final_coverage_pct, s.max_queue_size);
  if (s.urls_dropped != 0) {
    summary += StringPrintf(" | dropped %llu",
                            static_cast<unsigned long long>(s.urls_dropped));
  }
  summary += "\n";
  if (s.classifier_confusion.total() > 0 && args.classifier != "oracle") {
    summary += StringPrintf("classifier precision %.3f recall %.3f\n",
                            s.classifier_confusion.precision(),
                            s.classifier_confusion.recall());
  }
  return finish(summary, r->series);
}

int Run(const Args& args) {
  auto loaded_or = LoadGraph(args);
  if (!loaded_or.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 loaded_or.status().ToString().c_str());
    return 1;
  }
  const WebGraph& graph = loaded_or->graph;
  const store::StoredWebGraph* stored = loaded_or->stored.get();
  // Mapped replays read the precomputed stats section instead of
  // scanning 100M page records (which would page the whole section in).
  DatasetStats stats;
  if (stored != nullptr) {
    const store::DatasetStatsRecord& record = stored->stats();
    stats.total_urls = record.total_urls;
    stats.ok_html_pages = record.ok_html_pages;
    stats.relevant_ok_pages = record.relevant_ok_pages;
    stats.irrelevant_ok_pages = record.irrelevant_ok_pages;
  } else {
    stats = graph.ComputeStats();
  }
  std::printf("dataset: %zu URLs, %zu hosts, %zu links; %.1f%% of %llu OK "
              "pages relevant (%s)\n",
              graph.num_pages(), graph.num_hosts(), graph.num_links(),
              100.0 * stats.relevance_ratio(),
              static_cast<unsigned long long>(stats.ok_html_pages),
              std::string(LanguageName(graph.target_language())).c_str());

  std::vector<std::string> strategy_list;
  for (const auto& part : Split(args.strategy, ',')) {
    if (!part.empty()) strategy_list.emplace_back(part);
  }
  if (strategy_list.empty()) {
    std::fprintf(stderr, "no strategy given\n");
    return 1;
  }
  if (strategy_list.size() > 1 && !args.checkpoint.resume.empty() &&
      !std::filesystem::is_directory(args.checkpoint.resume)) {
    std::fprintf(stderr,
                 "--resume=FILE needs a single strategy; pass a snapshot "
                 "directory to resume a strategy list\n");
    return 1;
  }
  if (!args.checkpoint.snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.checkpoint.snapshot_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create snapshot dir %s\n",
                   args.checkpoint.snapshot_dir.c_str());
      return 1;
    }
  }

  ExperimentRunner::Options runner_options;
  runner_options.jobs = args.parallel.jobs;
  runner_options.trace = !args.obs_out.trace_out.empty();
  ExperimentRunner runner(runner_options);
  const int dataset = runner.AddDataset(&graph);
  std::vector<std::string> outputs(strategy_list.size());
  std::vector<RunSpec> specs;
  for (size_t i = 0; i < strategy_list.size(); ++i) {
    RunSpec spec;
    spec.name = strategy_list[i];
    spec.dataset = dataset;
    const std::string out_path =
        RunPath(args.out_path, strategy_list[i], strategy_list.size());
    const std::string journal_path =
        RunPath(args.journal, strategy_list[i], strategy_list.size());
    spec.custom = [&args, &strategy_list, &outputs, out_path, journal_path,
                   stored, i](const RunContext& context) {
      return RunOneStrategy(args, *context.graph, stored, strategy_list[i],
                            out_path, journal_path, context.obs,
                            &outputs[i]);
    };
    specs.push_back(std::move(spec));
  }
  const std::vector<RunResult> results = runner.Run(specs);

  int exit_code = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) std::printf("\n");
    std::fputs(outputs[i].c_str(), stdout);
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "%s\n",
                   results[i].status.ToString().c_str());
      exit_code = 1;
    }
  }

  obs::RunObs merged;
  MergeRunObs(results, &merged);
  std::vector<const obs::TraceSink*> sinks;
  for (const RunResult& r : results) {
    if (r.obs != nullptr) r.obs->CollectTraceSinks(&sinks);
  }
  const Status written = WriteObsOutputs(args.obs_out, merged, sinks);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    exit_code = 1;
  }
  return exit_code;
}

int Main(int argc, char** argv) {
  Args args;
  ParseArgs(argc, argv, &args);
  obs::ConfigureTelemetryPlaneFromFlags(args.telemetry, argv[0]);
  return Run(args);
}

}  // namespace
}  // namespace lswc

int main(int argc, char** argv) { return lswc::Main(argc, argv); }
