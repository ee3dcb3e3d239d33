#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "core/checkpoint.h"
#include "obs/journal.h"
#include "obs/run_obs.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace lswc::bench {

unsigned BenchArgs::resolved_jobs() const {
  return parallel.jobs != 0 ? parallel.jobs : ThreadPool::DefaultThreadCount();
}

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  FlagTable table("[options]");
  AddGeneratorFlags(&table, &args.dataset, /*with_preset=*/false);
  table.String("--out-dir", "DIR", "output directory (default bench_out)",
               &args.out_dir);
  AddParallelFlags(&table, &args.parallel);
  AddReplayFlags(&table, &args.dataset, /*with_disk=*/false);
  AddCheckpointFlags(&table, &args.checkpoint);
  AddObsOutputFlags(&table, &args.obs_out);
  obs::AddTelemetryFlags(&table, &args.telemetry);
  table.String("--journal-dir", "DIR",
               "one decision journal per grid cell, DIR/<cell>.jrnl",
               &args.journal_dir);
  table.String("--only", "SUBSTR",
               "run only the grid cells whose name contains SUBSTR",
               &args.only);
  table.ParseOrExit(argc, argv);
  obs::ConfigureTelemetryPlaneFromFlags(args.telemetry, argv[0]);
  return args;
}

namespace {
/// Binary-wide obs state: harnesses may run several grids (fig5 runs
/// Thai and Japanese), so per-grid bundles are folded into one merged
/// view here, and traced bundles are kept alive until WriteReport emits
/// the trace file. next_tid keeps every run of the binary on its own
/// trace track.
struct ObsAccumulator {
  obs::RunObs merged;
  std::vector<std::unique_ptr<obs::RunObs>> traced;
  int next_tid = 0;
};

ObsAccumulator& Accumulator() {
  static ObsAccumulator* acc = new ObsAccumulator();
  return *acc;
}

void FlushObsFiles(const BenchArgs& args) {
  ObsAccumulator& acc = Accumulator();
  std::vector<const obs::TraceSink*> sinks;
  for (const auto& bundle : acc.traced) bundle->CollectTraceSinks(&sinks);
  const Status status = WriteObsOutputs(args.obs_out, acc.merged, sinks);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
}
}  // namespace

ExperimentRunner::Options RunnerOptions(const BenchArgs& args) {
  ExperimentRunner::Options options;
  options.jobs = args.parallel.jobs;
  options.trace = !args.obs_out.trace_out.empty();
  options.trace_tid_base = Accumulator().next_tid;
  return options;
}

void AccumulateObs(std::vector<RunResult>* results, BenchReport* report) {
  ObsAccumulator& acc = Accumulator();
  MergeRunObs(*results, &acc.merged);
  acc.next_tid += static_cast<int>(results->size());
  for (RunResult& result : *results) {
    if (result.obs != nullptr &&
        (result.obs->trace != nullptr || !result.obs->shard_traces.empty())) {
      acc.traced.push_back(std::move(result.obs));
    }
  }
  if (report != nullptr && acc.merged.enabled) {
    report->set_obs_json(acc.merged.StatsJson(/*include_times=*/true));
  }
}

BenchReport MakeReport(std::string name, const BenchArgs& args) {
  BenchReport report(std::move(name));
  report.set_pages(args.dataset.pages);
  report.set_seed(args.dataset.seed);
  report.set_jobs(args.resolved_jobs());
  report.set_shards(args.parallel.shards);
  return report;
}

void WriteReport(const BenchArgs& args, const BenchReport& report) {
  const Status status = report.WriteFile(args.out_dir);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("# wrote %s/BENCH_%s.json\n", args.out_dir.c_str(),
              report.name().c_str());
  FlushObsFiles(args);
}

namespace {
/// Replays --dataset-file through the chosen backend: the mmap path
/// returns a zero-copy view of the mapping (page-ins happen as the
/// crawl touches records), the ram path pays all I/O up front.
WebGraph OpenStored(const DatasetFlags& dataset) {
  const auto t0 = std::chrono::steady_clock::now();
  WebGraph graph = [&dataset] {
    if (dataset.store == "ram") {
      auto ram = store::StoredWebGraph::ReadInRam(dataset.dataset_file);
      LSWC_CHECK(ram.ok()) << ram.status();
      return std::move(ram).value();
    }
    auto stored = store::StoredWebGraph::Open(dataset.dataset_file);
    LSWC_CHECK(stored.ok()) << stored.status();
    return (*stored)->NewView();
  }();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("# replaying %s (%s store): %zu pages / %zu hosts / %zu links, "
              "opened in %.2fs\n",
              dataset.dataset_file.c_str(), dataset.store.c_str(),
              graph.num_pages(), graph.num_hosts(), graph.num_links(), secs);
  return graph;
}

WebGraph Build(std::string_view preset, const DatasetFlags& dataset) {
  if (!dataset.dataset_file.empty()) return OpenStored(dataset);
  const SyntheticWebOptions options = dataset.GeneratorOptions(preset);
  const auto t0 = std::chrono::steady_clock::now();
  auto graph = GenerateWebGraph(options);
  LSWC_CHECK(graph.ok()) << graph.status();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("# generated %zu pages / %zu hosts / %zu links in %.2fs "
              "(seed %llu)\n",
              graph->num_pages(), graph->num_hosts(), graph->num_links(),
              secs, static_cast<unsigned long long>(options.seed));
  return std::move(graph).value();
}
}  // namespace

WebGraph BuildThaiDataset(const BenchArgs& args) {
  return Build("thai", args.dataset);
}

WebGraph BuildJapaneseDataset(const BenchArgs& args) {
  return Build("japanese", args.dataset);
}

std::vector<GridResult> RunGrid(const BenchArgs& args, const WebGraph& graph,
                                ClassifierFactory default_classifier,
                                std::vector<GridRun> runs, BenchReport* report,
                                bool print) {
  if (!args.only.empty()) {
    const size_t before = runs.size();
    runs.erase(std::remove_if(runs.begin(), runs.end(),
                              [&args](const GridRun& run) {
                                return run.name.find(args.only) ==
                                       std::string::npos;
                              }),
               runs.end());
    std::printf("# --only=%s: running %zu of %zu cells\n", args.only.c_str(),
                runs.size(), before);
    if (runs.empty()) return {};
  }
  ExperimentRunner runner(RunnerOptions(args));
  // Mmap replays register the dataset *file* so every cell's link DB is
  // served from the shared mapping (MmapLinkDb) instead of the in-RAM
  // copy; reopening is cheap and happens once per runner (call_once).
  // The ram backend — and generated graphs — use the prebuilt view.
  const bool mmap_replay =
      !args.dataset.dataset_file.empty() && args.dataset.store == "mmap";
  const int dataset =
      mmap_replay
          ? runner.AddDataset(StoredDatasetSpec{args.dataset.dataset_file})
          : runner.AddDataset(&graph);

  if (!args.checkpoint.snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.checkpoint.snapshot_dir, ec);
    LSWC_CHECK(!ec) << "cannot create snapshot dir "
                    << args.checkpoint.snapshot_dir;
  }
  if (!args.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.journal_dir, ec);
    LSWC_CHECK(!ec) << "cannot create journal dir " << args.journal_dir;
  }

  // Per-cell decision journals. Each writer is touched only by its
  // cell's serial commit path during Run, then finalized (atomic
  // rename) here once the grid drains.
  std::vector<std::unique_ptr<obs::JournalWriter>> journals;

  std::vector<RunSpec> specs;
  specs.reserve(runs.size());
  for (GridRun& run : runs) {
    RunSpec spec;
    spec.name = run.name.empty() ? run.strategy->name() : run.name;
    spec.dataset = dataset;
    spec.strategy = run.strategy;
    spec.classifier =
        run.classifier ? std::move(run.classifier) : default_classifier;
    spec.render_mode = run.render_mode;
    spec.options = std::move(run.options);
    if (args.parallel.shards != 0) spec.options.shards = args.parallel.shards;
    // Out-of-core identity: recorded in the snapshot fingerprint, and
    // the budget sizes the spilling frontier for serial cells.
    spec.options.dataset_file = args.dataset.dataset_file;
    spec.options.memory_budget_mb = args.dataset.memory_budget_mb;
    spec.options.checkpoint_every_pages = args.checkpoint.every;
    spec.options.snapshot_dir = args.checkpoint.snapshot_dir;
    spec.options.progress_every = args.obs_out.progress_every;
    // Resume-if-exists: cells whose snapshot survived the crash pick up
    // mid-run; the rest start fresh.
    const std::string resume_path = ResumePathFor(args.checkpoint, spec.name);
    if (!resume_path.empty()) {
      spec.options.resume_path = resume_path;
      std::printf("# resuming %s from %s\n", spec.name.c_str(),
                  resume_path.c_str());
    }
    if (!args.journal_dir.empty() && spec.options.resume_path.empty()) {
      const std::string path = args.journal_dir + "/" +
                               SanitizeSnapshotLabel(spec.name) + ".jrnl";
      auto writer = OpenRunJournal(path, graph, spec.name,
                                   spec.classifier()->name(), spec.options);
      LSWC_CHECK(writer.ok()) << "journal " << path << ": "
                              << writer.status();
      spec.options.journal = writer->get();
      journals.push_back(std::move(*writer));
    } else if (!args.journal_dir.empty()) {
      // A journal must cover the run from its first seed; a resumed
      // cell's earlier decisions are gone, so it gets no journal.
      std::printf("# not journaling resumed cell %s\n", spec.name.c_str());
    }
    specs.push_back(std::move(spec));
  }

  std::vector<RunResult> results = runner.Run(specs);
  for (std::unique_ptr<obs::JournalWriter>& journal : journals) {
    const Status finalized = journal->Finalize();
    LSWC_CHECK(finalized.ok()) << "journal finalize: " << finalized;
  }
  if (!journals.empty()) {
    std::printf("# %zu decision journal(s) -> %s\n", journals.size(),
                args.journal_dir.c_str());
  }
  AccumulateObs(&results, report);
  std::vector<GridResult> out;
  out.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    RunResult& r = results[i];
    LSWC_CHECK(r.status.ok()) << specs[i].name << ": " << r.status;
    const SimulationSummary& s = r.result->summary;
    if (print) {
      std::printf("%-38s crawled %9llu | harvest %5.1f%% | coverage %5.1f%% "
                  "| max queue %9zu | repush %8llu | drop %9llu | %6.2fs\n",
                  specs[i].strategy->name().c_str(),
                  static_cast<unsigned long long>(s.pages_crawled),
                  s.final_harvest_pct, s.final_coverage_pct,
                  s.max_queue_size,
                  static_cast<unsigned long long>(r.repushed),
                  static_cast<unsigned long long>(r.dropped),
                  r.wall_time_sec);
    }
    if (report != nullptr) {
      BenchRunEntry entry;
      entry.name = specs[i].name;
      entry.wall_time_sec = r.wall_time_sec;
      entry.pages_crawled = s.pages_crawled;
      entry.relevant_crawled = s.relevant_crawled;
      entry.harvest_pct = s.final_harvest_pct;
      entry.coverage_pct = s.final_coverage_pct;
      entry.max_queue_size = s.max_queue_size;
      entry.repushed = r.repushed;
      entry.dropped = r.dropped;
      entry.series_rows = r.result->series.num_rows();
      entry.series_hash = Fnv1aHash(r.result->series);
      report->AddRun(entry);
    }
    out.push_back(GridResult{specs[i].name, std::move(*r.result),
                             r.wall_time_sec, r.repushed, r.dropped});
  }
  return out;
}

void PrintDatasetStats(const char* name, const WebGraph& graph) {
  const DatasetStats stats = graph.ComputeStats();
  std::printf("%s dataset: total URLs %llu | OK pages %llu | relevant %llu "
              "(%.1f%%) | irrelevant %llu\n",
              name, static_cast<unsigned long long>(stats.total_urls),
              static_cast<unsigned long long>(stats.ok_html_pages),
              static_cast<unsigned long long>(stats.relevant_ok_pages),
              100.0 * stats.relevance_ratio(),
              static_cast<unsigned long long>(stats.irrelevant_ok_pages));
}

Series MergeColumn(const std::vector<GridResult>& runs, size_t column,
                   const std::string& x_name) {
  if (runs.empty()) return Series(x_name, {});
  std::vector<SeriesInput> inputs;
  inputs.reserve(runs.size());
  for (const GridResult& run : runs) {
    inputs.push_back(SeriesInput{run.name, &run.result.series});
  }
  return MergeSeriesColumns(inputs, column, x_name);
}

void EmitSeries(const BenchArgs& args, const std::string& file,
                const Series& series, BenchReport* report) {
  if (series.num_columns() == 0) {
    std::printf("# skipping %s: no runs selected\n", file.c_str());
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/" + file;
  const Status status = series.WriteDatFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  } else {
    std::printf("# wrote %s\n", path.c_str());
  }
  if (report != nullptr) {
    report->AddSeries(
        BenchSeriesEntry{file, series.num_rows(), Fnv1aHash(series)});
  }
  std::fputs(series.ToTable(series.num_rows() / 16 + 1).c_str(), stdout);
}

}  // namespace lswc::bench
