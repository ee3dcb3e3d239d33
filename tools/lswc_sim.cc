// lswc_sim — the command-line front end to the whole library: pick a
// dataset (preset generator or a crawl-log file), a classifier, one or
// more strategies and a fidelity mode, run the simulation(s), and get
// the summary plus a gnuplot-ready series.
//
//   lswc_sim --dataset=thai --pages=1000000 --strategy=plimited:2
//   lswc_sim --log=crawl.log --classifier=detector --render=head
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
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_frontier.h"
#include "core/checkpoint.h"
#include "core/context_graph.h"
#include "core/crawl_observer.h"
#include "core/distiller.h"
#include "core/experiment_runner.h"
#include "core/politeness.h"
#include "core/simulator.h"
#include "obs/journal.h"
#include "obs/run_obs.h"
#include "obs/telemetry_plane.h"
#include "obs/trace_sink.h"
#include "store/memory_budget.h"
#include "store/mmap_link_db.h"
#include "store/stored_web_graph.h"
#include "util/string_util.h"
#include "webgraph/crawl_log.h"
#include "webgraph/generator.h"
#include "webgraph/link_db.h"
#include "webgraph/text_log.h"

namespace lswc {
namespace {

struct Args {
  std::string dataset = "thai";
  std::string log_path;
  uint32_t pages = 200'000;
  uint64_t seed = 0;
  /// Replay an LSWCDS1 dataset file (stream one with lswc_dataset)
  /// instead of generating; --dataset/--pages/--seed are then ignored.
  std::string dataset_file;
  /// Backend for --dataset-file: "mmap" (graph + link DB from one
  /// shared mapping, default), "ram" (copy everything to heap), or
  /// "disk" (graph in RAM, links through DiskLinkDb's LRU block cache —
  /// the cache is sized from --memory-budget-mb when given).
  std::string store = "mmap";
  /// Global memory budget in MiB (0 = unbudgeted): makes the spilling
  /// frontier the default and sizes it — plus the --store=disk link
  /// cache — from one store::PlanMemoryBudget pool.
  uint64_t memory_budget_mb = 0;
  std::string classifier = "meta";
  std::string strategy = "soft";
  std::string render = "auto";
  bool parse_html = false;
  uint64_t max_pages = 0;
  size_t frontier_capacity = 0;
  /// Frontier regime: "pop" (the paper's priority queues, default) or
  /// "batch" (select the top K pending URLs per iteration).
  std::string frontier = "pop";
  uint32_t batch_k = 0;       // URLs per batch iteration (0 = default).
  std::string scorers;        // Composite scorer spec (empty = default).
  /// Host-partitioned worker shards (0 = the serial engine). Output is
  /// bit-identical for every value; N > 1 parallelizes the visit work.
  uint32_t shards = 0;
  uint32_t shard_batch = 0;  // Visits planned per round (0 = default).
  std::string out_path;
  /// Decision journal output (empty = no journaling). Strategy lists
  /// suffix the path per strategy, like --out.
  std::string journal;
  bool politeness = false;
  int connections = 16;
  double interval_sec = 1.0;
  unsigned jobs = 0;  // 0 = all hardware threads.
  uint64_t checkpoint_every = 0;  // Pages between snapshots (0 = never).
  std::string snapshot_dir;
  /// Snapshot file to resume from, or a directory holding per-strategy
  /// <strategy>.snap files (resume-if-exists).
  std::string resume;
  /// Write the merged obs stats (stages + registry) as JSON.
  std::string stats_json;
  /// Write a Chrome trace-event file (one track per strategy).
  std::string trace_out;
  /// Print a progress line to stderr every N crawled pages.
  uint64_t progress_every = 0;
  /// Live telemetry plane (see docs/ARCHITECTURE.md "Telemetry
  /// plane"): status endpoint, stall watchdog, per-run flight recorder.
  std::string telemetry;
  uint64_t watchdog_secs = 0;
  bool watchdog_abort = false;
  uint64_t flight_recorder_events = 1024;
  std::string telemetry_dump;
  /// Fault injection for the watchdog CI drill: freeze the crawl thread
  /// forever once N pages have been fetched (0 = never). The process
  /// stays alive, so the stall watchdog's deadline elapses and its dump
  /// path fires — SIGSTOP would suspend the watchdog thread too.
  uint64_t stall_after = 0;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --dataset=thai|japanese      preset synthetic dataset (default thai)\n"
      "  --pages=N                    dataset size (default 200000)\n"
      "  --seed=N                     generator seed (default preset)\n"
      "  --log=FILE                   replay a crawl log (binary or text)\n"
      "  --dataset-file=FILE          replay an LSWCDS1 dataset file\n"
      "                               (stream one with lswc_dataset)\n"
      "  --store=mmap|ram|disk        dataset backend: shared mapping\n"
      "                               (default), heap copy, or DiskLinkDb\n"
      "                               block cache for the links\n"
      "  --memory-budget-mb=N         global budget: sizes the spilling\n"
      "                               frontier and the disk link cache\n"
      "  --classifier=meta|detector|composite|oracle\n"
      "  --strategy=bfs|hard|soft|limited:N|plimited:N|context:L|hub:K\n"
      "                               (comma-separated list fans out runs)\n"
      "  --render=auto|none|head|full page-byte fidelity\n"
      "  --parse-html                 extract links from rendered HTML\n"
      "  --max-pages=N                crawl budget (default: exhaust)\n"
      "  --frontier-capacity=N        bounded URL queue (default: unlimited)\n"
      "  --frontier=pop|batch         pop-order queues (default) or the\n"
      "                               batch-selection regime: select the\n"
      "                               top K pending URLs, crawl them, repeat\n"
      "  --batch-k=N                  batch size per selection iteration\n"
      "                               (default 256; needs --frontier=batch)\n"
      "  --scorers=SPEC               weighted scorer spec for --frontier=\n"
      "                               batch, e.g. lang:1.0,indegree:0.5\n"
      "                               (scorers: lang parent indegree depth\n"
      "                               random; default lang:1.0,parent:0.5)\n"
      "  --shards=N                   run the host-sharded engine with N\n"
      "                               worker shards (0 = serial engine;\n"
      "                               output is bit-identical either way)\n"
      "  --shard-batch=N              speculative visits per sharded round\n"
      "  --politeness=CONNS,INTERVAL  timed simulation (e.g. 16,1.0)\n"
      "  --jobs=N                     worker threads for strategy lists\n"
      "  --out=FILE                   write the metric series as .dat\n"
      "  --journal=FILE               record every crawl decision (seeds,\n"
      "                               fetches, link verdicts, batch\n"
      "                               selections) to a binary journal;\n"
      "                               inspect with lswc_journal\n"
      "  --checkpoint-every=N         snapshot the run state every N pages\n"
      "                               (requires --snapshot-dir)\n"
      "  --snapshot-dir=DIR           rolling per-strategy DIR/<name>.snap\n"
      "  --resume=PATH                resume from a snapshot file, or from\n"
      "                               DIR/<strategy>.snap when PATH is a\n"
      "                               directory (strategies without a\n"
      "                               snapshot start fresh)\n"
      "  --stats-json=FILE            write merged obs stats (stage timings\n"
      "                               + counters/histograms) as JSON\n"
      "  --trace-out=FILE             write a Chrome trace-event file (load\n"
      "                               in Perfetto / chrome://tracing)\n"
      "  --progress-every=N           progress line to stderr every N pages\n"
      "  --telemetry=ENDPOINT         serve live status on unix:PATH or\n"
      "                               tcp:[HOST:]PORT (/metrics Prometheus\n"
      "                               text, /progress JSON; tcp:0 picks an\n"
      "                               ephemeral port, printed as a stderr\n"
      "                               TELEMETRY line)\n"
      "  --watchdog-secs=N            dump the flight recorder + per-run\n"
      "                               attribution when no fetch completes\n"
      "                               for N seconds\n"
      "  --watchdog-abort             abort() when the watchdog fires\n"
      "  --flight-recorder-events=N   per-run crash/stall event ring size\n"
      "                               (default 1024; 0 disables)\n"
      "  --telemetry-dump=FILE        watchdog/crash dump file (default\n"
      "                               stderr)\n"
      "  --stall-after=N              fault injection: freeze the crawl\n"
      "                               thread forever after N fetches (the\n"
      "                               watchdog CI drill)\n",
      argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&](std::string_view prefix) -> std::optional<std::string_view> {
      if (!StartsWith(a, prefix)) return std::nullopt;
      return a.substr(prefix.size());
    };
    if (auto v = value("--dataset=")) {
      args->dataset = std::string(*v);
    } else if (auto v = value("--pages=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0 || *n > UINT32_MAX) return false;
      args->pages = static_cast<uint32_t>(*n);
    } else if (auto v = value("--seed=")) {
      const auto n = ParseUint64(*v);
      if (!n) return false;
      args->seed = *n;
    } else if (auto v = value("--log=")) {
      args->log_path = std::string(*v);
    } else if (auto v = value("--dataset-file=")) {
      if (v->empty()) return false;
      args->dataset_file = std::string(*v);
    } else if (auto v = value("--store=")) {
      if (*v != "mmap" && *v != "ram" && *v != "disk") {
        std::fprintf(stderr, "--store must be mmap, ram, or disk\n");
        return false;
      }
      args->store = std::string(*v);
    } else if (auto v = value("--memory-budget-mb=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0) return false;
      args->memory_budget_mb = *n;
    } else if (auto v = value("--classifier=")) {
      args->classifier = std::string(*v);
    } else if (auto v = value("--strategy=")) {
      args->strategy = std::string(*v);
    } else if (auto v = value("--render=")) {
      args->render = std::string(*v);
    } else if (a == "--parse-html") {
      args->parse_html = true;
    } else if (auto v = value("--max-pages=")) {
      const auto n = ParseUint64(*v);
      if (!n) return false;
      args->max_pages = *n;
    } else if (auto v = value("--frontier-capacity=")) {
      const auto n = ParseUint64(*v);
      if (!n) return false;
      args->frontier_capacity = *n;
    } else if (auto v = value("--frontier=")) {
      if (*v != "pop" && *v != "batch") {
        std::fprintf(stderr, "--frontier must be pop or batch\n");
        return false;
      }
      args->frontier = std::string(*v);
    } else if (auto v = value("--batch-k=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0 || *n > UINT32_MAX) return false;
      args->batch_k = static_cast<uint32_t>(*n);
    } else if (auto v = value("--scorers=")) {
      if (v->empty()) return false;
      args->scorers = std::string(*v);
    } else if (auto v = value("--shards=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n > 256) return false;
      args->shards = static_cast<uint32_t>(*n);
    } else if (auto v = value("--shard-batch=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0) return false;
      args->shard_batch = static_cast<uint32_t>(*n);
    } else if (auto v = value("--politeness=")) {
      args->politeness = true;
      const auto parts = Split(*v, ',');
      if (parts.size() != 2) return false;
      const auto conns = ParseUint64(parts[0]);
      const auto interval = ParseDouble(parts[1]);
      if (!conns || !interval || *conns == 0) return false;
      args->connections = static_cast<int>(*conns);
      args->interval_sec = *interval;
    } else if (auto v = value("--jobs=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0 || *n > 1024) return false;
      args->jobs = static_cast<unsigned>(*n);
    } else if (auto v = value("--out=")) {
      args->out_path = std::string(*v);
    } else if (auto v = value("--journal=")) {
      if (v->empty()) return false;
      args->journal = std::string(*v);
    } else if (auto v = value("--checkpoint-every=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0) return false;
      args->checkpoint_every = *n;
    } else if (auto v = value("--snapshot-dir=")) {
      if (v->empty()) return false;
      args->snapshot_dir = std::string(*v);
    } else if (auto v = value("--resume=")) {
      if (v->empty()) return false;
      args->resume = std::string(*v);
    } else if (auto v = value("--stats-json=")) {
      if (v->empty()) return false;
      args->stats_json = std::string(*v);
    } else if (auto v = value("--trace-out=")) {
      if (v->empty()) return false;
      args->trace_out = std::string(*v);
    } else if (auto v = value("--progress-every=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0) return false;
      args->progress_every = *n;
    } else if (auto v = value("--telemetry=")) {
      if (v->empty()) return false;
      args->telemetry = std::string(*v);
    } else if (auto v = value("--watchdog-secs=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0) return false;
      args->watchdog_secs = *n;
    } else if (a == "--watchdog-abort") {
      args->watchdog_abort = true;
    } else if (auto v = value("--flight-recorder-events=")) {
      const auto n = ParseUint64(*v);
      if (!n) return false;
      args->flight_recorder_events = *n;
    } else if (auto v = value("--telemetry-dump=")) {
      if (v->empty()) return false;
      args->telemetry_dump = std::string(*v);
    } else if (auto v = value("--stall-after=")) {
      const auto n = ParseUint64(*v);
      if (!n || *n == 0) return false;
      args->stall_after = *n;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return false;
    }
  }
  if (args->checkpoint_every != 0 && args->snapshot_dir.empty()) {
    std::fprintf(stderr, "--checkpoint-every requires --snapshot-dir\n");
    return false;
  }
  if (!args->journal.empty() && !args->resume.empty()) {
    std::fprintf(stderr,
                 "--journal and --resume are exclusive: a journal must "
                 "cover the run from its first seed, and a resumed crawl's "
                 "earlier decisions are gone\n");
    return false;
  }
  if (!args->dataset_file.empty() && !args->log_path.empty()) {
    std::fprintf(stderr, "--dataset-file and --log are exclusive\n");
    return false;
  }
  if (args->shards != 0 && args->politeness) {
    std::fprintf(stderr,
                 "--shards applies to the timeless simulator only; the "
                 "politeness simulator has its own per-host scheduler\n");
    return false;
  }
  if (args->shard_batch != 0 && args->shards == 0) {
    std::fprintf(stderr, "--shard-batch requires --shards\n");
    return false;
  }
  if (args->politeness && args->frontier_capacity != 0) {
    std::fprintf(stderr,
                 "--frontier-capacity applies to the timeless simulator "
                 "only; --politeness keeps unbounded per-host queues\n");
    return false;
  }
  if (args->politeness && args->parse_html) {
    std::fprintf(stderr,
                 "--parse-html applies to the timeless simulator only; "
                 "--politeness replays the link database\n");
    return false;
  }
  if (args->frontier != "batch") {
    if (args->batch_k != 0) {
      std::fprintf(stderr, "--batch-k requires --frontier=batch\n");
      return false;
    }
    if (!args->scorers.empty()) {
      std::fprintf(stderr, "--scorers requires --frontier=batch\n");
      return false;
    }
  } else {
    if (args->politeness) {
      std::fprintf(stderr,
                   "--frontier=batch applies to the timeless simulator "
                   "only; --politeness pops from a per-host event queue\n");
      return false;
    }
    if (args->frontier_capacity != 0) {
      std::fprintf(stderr,
                   "--frontier=batch is incompatible with "
                   "--frontier-capacity: batch selection ranks the "
                   "complete pending set and never sheds URLs\n");
      return false;
    }
  }
  return true;
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
  if (!args.dataset_file.empty()) {
    if (args.store == "mmap") {
      auto stored = store::StoredWebGraph::Open(args.dataset_file);
      LSWC_RETURN_IF_ERROR(stored.status());
      WebGraph graph = (*stored)->NewView();
      return LoadedDataset{std::move(graph), std::move(stored).value()};
    }
    // "ram" and "disk" both hold the graph on the heap; disk differs
    // only in serving links through DiskLinkDb (per strategy, below).
    auto graph = store::StoredWebGraph::ReadInRam(args.dataset_file);
    LSWC_RETURN_IF_ERROR(graph.status());
    return LoadedDataset{std::move(graph).value(), nullptr};
  }
  if (!args.log_path.empty()) {
    auto binary = ReadCrawlLog(args.log_path);
    if (binary.ok()) return LoadedDataset{std::move(binary).value(), nullptr};
    auto text = ReadTextLogFile(args.log_path);
    LSWC_RETURN_IF_ERROR(text.status());
    return LoadedDataset{std::move(text).value(), nullptr};
  }
  SyntheticWebOptions options = args.dataset == "japanese"
                                    ? JapaneseLikeOptions(args.pages)
                                    : ThaiLikeOptions(args.pages);
  if (args.dataset != "japanese" && args.dataset != "thai") {
    return Status::InvalidArgument("unknown dataset " + args.dataset);
  }
  if (args.seed != 0) options.seed = args.seed;
  auto generated = GenerateWebGraph(options);
  LSWC_RETURN_IF_ERROR(generated.status());
  return LoadedDataset{std::move(generated).value(), nullptr};
}

StatusOr<std::unique_ptr<Classifier>> MakeClassifier(const Args& args,
                                                     Language target) {
  if (args.classifier == "meta") {
    return std::unique_ptr<Classifier>(new MetaTagClassifier(target));
  }
  if (args.classifier == "detector") {
    return std::unique_ptr<Classifier>(new DetectorClassifier(target));
  }
  if (args.classifier == "composite") {
    return std::unique_ptr<Classifier>(new CompositeClassifier(target));
  }
  if (args.classifier == "oracle") {
    return std::unique_ptr<Classifier>(new OracleClassifier(target));
  }
  return Status::InvalidArgument("unknown classifier " + args.classifier);
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

StatusOr<RenderMode> ResolveRender(const Args& args) {
  if (args.render == "auto") {
    RenderMode render =
        (args.classifier == "detector" || args.classifier == "composite")
            ? RenderMode::kHead
            : RenderMode::kNone;
    if (args.parse_html) render = RenderMode::kFull;
    return render;
  }
  if (args.render == "none") return RenderMode::kNone;
  if (args.render == "head") return RenderMode::kHead;
  if (args.render == "full") return RenderMode::kFull;
  return Status::InvalidArgument("unknown render mode " + args.render);
}

/// The series path for strategy `index` of `count`: --out verbatim for
/// a single strategy, "run.dat" -> "run.plimited-2.dat" for lists.
std::string OutPathFor(const Args& args, const std::string& strategy,
                       size_t count) {
  if (args.out_path.empty() || count == 1) return args.out_path;
  std::string tag = strategy;
  for (char& c : tag) {
    if (c == ':' || c == '/') c = '-';
  }
  const size_t dot = args.out_path.rfind('.');
  const size_t slash = args.out_path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return args.out_path + "." + tag;
  }
  return args.out_path.substr(0, dot) + "." + tag +
         args.out_path.substr(dot);
}

/// The journal path for one strategy: same per-strategy suffixing as
/// OutPathFor so `--journal=run.jrnl --strategy=a,b` writes
/// run.a.jrnl and run.b.jrnl.
std::string JournalPathFor(const Args& args, const std::string& strategy,
                           size_t count) {
  if (args.journal.empty() || count == 1) return args.journal;
  std::string tag = strategy;
  for (char& c : tag) {
    if (c == ':' || c == '/') c = '-';
  }
  const size_t dot = args.journal.rfind('.');
  const size_t slash = args.journal.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return args.journal + "." + tag;
  }
  return args.journal.substr(0, dot) + "." + tag +
         args.journal.substr(dot);
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
  auto classifier = MakeClassifier(args, graph.target_language());
  LSWC_RETURN_IF_ERROR(classifier.status());
  auto strategy = MakeStrategy(strategy_spec, graph, classifier->get());
  LSWC_RETURN_IF_ERROR(strategy.status());
  auto render = ResolveRender(args);
  LSWC_RETURN_IF_ERROR(render.status());

  // Open the decision journal before anything runs so a setup failure
  // (bad path, full disk) aborts the run instead of losing the record.
  std::unique_ptr<obs::JournalWriter> journal;
  if (!journal_path.empty()) {
    const bool batch = args.frontier == "batch";
    obs::JournalMeta meta;
    meta.num_pages = graph.num_pages();
    meta.num_hosts = graph.num_hosts();
    meta.num_links = graph.num_links();
    meta.generator_seed = graph.generator_seed();
    meta.target_language =
        std::string(LanguageName(graph.target_language()));
    meta.strategy = strategy_spec;
    meta.classifier = (*classifier)->name();
    meta.regime = args.politeness ? "politeness" : (batch ? "batch" : "pop");
    // Record the *resolved* batch identity, not the flag values, so
    // two journals compare equal iff the crawls were configured equal.
    meta.batch_k =
        batch ? (args.batch_k == 0 ? kDefaultBatchK : args.batch_k) : 0;
    meta.scorer_spec =
        batch ? (args.scorers.empty() ? kDefaultScorerSpec : args.scorers)
              : "";
    auto writer = obs::JournalWriter::Open(journal_path, std::move(meta));
    LSWC_RETURN_IF_ERROR(writer.status());
    journal = std::move(writer).value();
    journal->set_host_lookup(
        [&graph](uint32_t url) { return graph.page(url).host; });
  }

  // Link DB per backend: mmap serves straight from the shared dataset
  // mapping, disk streams target blocks through an LRU cache (sized
  // from the budget plan when one is set), everything else replays from
  // the in-memory graph.
  std::unique_ptr<LinkDb> link_db;
  if (stored != nullptr) {
    link_db = std::make_unique<store::MmapLinkDb>(*stored);
  } else if (!args.dataset_file.empty() && args.store == "disk") {
    DiskLinkDb::Options cache;
    if (args.memory_budget_mb != 0) {
      const store::MemoryBudgetPlan plan =
          store::PlanMemoryBudget(args.memory_budget_mb);
      cache.block_words = plan.link_cache_block_words;
      cache.max_cached_blocks = plan.linkdb_cache_blocks;
    }
    auto disk = DiskLinkDb::Open(args.dataset_file, cache);
    LSWC_RETURN_IF_ERROR(disk.status());
    link_db = std::move(disk).value();
  } else {
    link_db = std::make_unique<InMemoryLinkDb>(&graph);
  }
  if (obs != nullptr && obs->enabled) {
    link_db->AttachObs(&obs->registry);
    if (stored != nullptr) stored->AttachObs(&obs->registry);
  }
  VirtualWebSpace web(&graph, link_db.get(), *render);

  // Checkpoint/resume plumbing shared by both simulator kinds: each
  // strategy snapshots to (and resumes from) its own sanitized label.
  const std::string label = SanitizeSnapshotLabel(strategy_spec);
  std::string resume_path;
  if (!args.resume.empty()) {
    if (std::filesystem::is_directory(args.resume)) {
      const std::string candidate = args.resume + "/" + label + ".snap";
      if (std::filesystem::exists(candidate)) {
        resume_path = candidate;
        *output += StringPrintf("resuming from %s\n", candidate.c_str());
      }
    } else {
      resume_path = args.resume;
    }
  }

  // Each strategy run gets its own telemetry board when the plane is
  // configured (the custom RunSpec path bypasses ExperimentRunner's
  // auto-wiring, so the slot is filled here).
  obs::TelemetryContext* telemetry = nullptr;
  if (obs::TelemetryPlane::Instance().configured()) {
    telemetry = obs::TelemetryPlane::Instance().CreateContext(strategy_spec);
  }
  StallInjector stall_injector(args.stall_after);

  if (args.politeness) {
    PolitenessOptions options;
    options.num_connections = args.connections;
    options.min_access_interval_sec = args.interval_sec;
    options.max_pages = args.max_pages;
    options.checkpoint_every_pages = args.checkpoint_every;
    options.snapshot_dir = args.snapshot_dir;
    options.snapshot_label = label;
    options.resume_path = resume_path;
    options.obs = obs;
    options.progress_every = args.progress_every;
    options.telemetry = telemetry;
    options.run_label = strategy_spec;
    options.journal = journal.get();
    if (args.stall_after != 0) options.observers.push_back(&stall_injector);
    PolitenessSimulator sim(&web, classifier->get(), strategy->get(),
                            options);
    auto r = sim.Run();
    LSWC_RETURN_IF_ERROR(r.status());
    if (journal != nullptr) {
      LSWC_RETURN_IF_ERROR(journal->Finalize());
      *output += StringPrintf("journal -> %s\n", journal_path.c_str());
    }
    const PolitenessSummary& s = r->summary;
    *output += StringPrintf(
        "strategy %s: crawled %llu in %.0fs sim time "
        "(%.1f pages/s, stall %.1f%%)\n",
        (*strategy)->name().c_str(),
        static_cast<unsigned long long>(s.pages_crawled), s.sim_time_sec,
        s.pages_per_sec, 100.0 * s.politeness_stall_fraction);
    *output += StringPrintf(
        "harvest %.1f%% | coverage %.1f%% | max queue %zu\n",
        s.final_harvest_pct, s.final_coverage_pct, s.max_queue_size);
    if (!out_path.empty()) {
      LSWC_RETURN_IF_ERROR(r->series.WriteDatFile(out_path));
      *output += StringPrintf("series -> %s\n", out_path.c_str());
    }
    return Status::OK();
  }

  SimulationOptions options;
  options.max_pages = args.max_pages;
  options.parse_html = args.parse_html;
  options.frontier_capacity = args.frontier_capacity;
  options.frontier_kind = args.frontier == "pop" ? "" : args.frontier;
  options.batch_k = args.batch_k;
  options.scorers = args.scorers;
  options.shards = args.shards;
  options.shard_batch = args.shard_batch;
  options.dataset_file = args.dataset_file;
  options.memory_budget_mb = args.memory_budget_mb;
  options.checkpoint_every_pages = args.checkpoint_every;
  options.snapshot_dir = args.snapshot_dir;
  options.snapshot_label = label;
  options.resume_path = resume_path;
  options.obs = obs;
  options.progress_every = args.progress_every;
  options.telemetry = telemetry;
  options.run_label = strategy_spec;
  options.journal = journal.get();
  if (args.stall_after != 0) options.observers.push_back(&stall_injector);
  Simulator sim(&web, classifier->get(), strategy->get(), options);
  auto r = sim.Run();
  LSWC_RETURN_IF_ERROR(r.status());
  if (journal != nullptr) {
    LSWC_RETURN_IF_ERROR(journal->Finalize());
    *output += StringPrintf("journal -> %s\n", journal_path.c_str());
  }
  const SimulationSummary& s = r->summary;
  *output += StringPrintf("strategy %s with %s classifier:\n",
                          (*strategy)->name().c_str(),
                          (*classifier)->name().c_str());
  *output += StringPrintf(
      "crawled %llu | harvest %.1f%% | coverage %.1f%% | max queue %zu%s\n",
      static_cast<unsigned long long>(s.pages_crawled), s.final_harvest_pct,
      s.final_coverage_pct, s.max_queue_size,
      s.urls_dropped != 0
          ? StringPrintf(" | dropped %llu", static_cast<unsigned long long>(
                                                s.urls_dropped))
                .c_str()
          : "");
  if (s.classifier_confusion.total() > 0 && args.classifier != "oracle") {
    *output += StringPrintf("classifier precision %.3f recall %.3f\n",
                            s.classifier_confusion.precision(),
                            s.classifier_confusion.recall());
  }
  if (!out_path.empty()) {
    LSWC_RETURN_IF_ERROR(r->series.WriteDatFile(out_path));
    *output += StringPrintf("series -> %s\n", out_path.c_str());
  }
  return Status::OK();
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
  if (strategy_list.size() > 1 && !args.resume.empty() &&
      !std::filesystem::is_directory(args.resume)) {
    std::fprintf(stderr,
                 "--resume=FILE needs a single strategy; pass a snapshot "
                 "directory to resume a strategy list\n");
    return 1;
  }
  if (!args.snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.snapshot_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create snapshot dir %s\n",
                   args.snapshot_dir.c_str());
      return 1;
    }
  }

  ExperimentRunner::Options runner_options;
  runner_options.jobs = args.jobs;
  runner_options.trace = !args.trace_out.empty();
  ExperimentRunner runner(runner_options);
  const int dataset = runner.AddDataset(&graph);
  std::vector<std::string> outputs(strategy_list.size());
  std::vector<RunSpec> specs;
  for (size_t i = 0; i < strategy_list.size(); ++i) {
    RunSpec spec;
    spec.name = strategy_list[i];
    spec.dataset = dataset;
    const std::string out_path =
        OutPathFor(args, strategy_list[i], strategy_list.size());
    const std::string journal_path =
        JournalPathFor(args, strategy_list[i], strategy_list.size());
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

  if (!args.stats_json.empty()) {
    obs::RunObs merged;
    MergeRunObs(results, &merged);
    if (merged.enabled) {
      const auto parent = std::filesystem::path(args.stats_json).parent_path();
      if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
      }
      std::ofstream f(args.stats_json);
      if (f.is_open()) {
        f << merged.StatsJson(/*include_times=*/true);
        std::printf("obs stats -> %s\n", args.stats_json.c_str());
      } else {
        std::fprintf(stderr, "cannot open %s\n", args.stats_json.c_str());
        exit_code = 1;
      }
    } else {
      std::fprintf(stderr, "--stats-json ignored (obs disabled)\n");
    }
  }
  if (!args.trace_out.empty()) {
    std::vector<const obs::TraceSink*> sinks;
    for (const RunResult& r : results) {
      if (r.obs != nullptr) r.obs->CollectTraceSinks(&sinks);
    }
    if (sinks.empty()) {
      std::fprintf(stderr, "--trace-out ignored (obs disabled)\n");
    } else {
      const Status status = obs::TraceSink::WriteFile(args.trace_out, sinks);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        exit_code = 1;
      } else {
        std::printf("trace -> %s\n", args.trace_out.c_str());
      }
    }
  }
  return exit_code;
}

}  // namespace
}  // namespace lswc

namespace lswc {
namespace {
int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  obs::TelemetryOptions telemetry;
  telemetry.endpoint = args.telemetry;
  telemetry.watchdog_secs = args.watchdog_secs;
  telemetry.watchdog_abort = args.watchdog_abort;
  telemetry.flight_recorder_events = args.flight_recorder_events;
  telemetry.dump_path = args.telemetry_dump;
  obs::ConfigureTelemetryPlaneFromFlags(telemetry, argv[0]);
  return Run(args);
}
}  // namespace
}  // namespace lswc

int main(int argc, char** argv) { return lswc::Main(argc, argv); }
