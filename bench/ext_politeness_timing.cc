// Extension experiment (the paper's future work made concrete):
// "we also would like to enhance our crawling simulator by incorporating
// transfer delays and access intervals in the simulation."
//
// This harness runs the politeness-aware simulator over the Thai dataset
// and reports what the timeless trace replay cannot show: wall-clock
// cost per strategy, the connection-count scaling wall, and how a
// focused crawl becomes politeness-bound once only the big relevant
// hosts have pages left. Each timed run builds its own VirtualWebSpace
// view (fetch counters are per-run state), so the 8-cell matrix fans
// across --jobs workers.

#include <cstdio>
#include <optional>

#include "bench/bench_common.h"
#include "core/politeness.h"
#include "util/string_util.h"
#include "webgraph/link_db.h"

int main(int argc, char** argv) {
  using namespace lswc;
  using namespace lswc::bench;
  BenchArgs args = BenchArgs::Parse(argc, argv);
  if (args.dataset.pages > 300'000) args.dataset.pages = 300'000;
  BenchReport report = MakeReport("ext_politeness_timing", args);

  std::printf("=== Extension: transfer delays + access intervals ===\n");
  const WebGraph graph = BuildThaiDataset(args);
  PrintDatasetStats("Thai", graph);

  const BreadthFirstStrategy bfs;
  const HardFocusedStrategy hard;
  const SoftFocusedStrategy soft;
  const LimitedDistanceStrategy limited(2, true);
  const CrawlStrategy* strategies[] = {&bfs, &hard, &soft, &limited};
  const int connection_counts[] = {8, 64};

  struct Cell {
    const CrawlStrategy* strategy = nullptr;
    int connections = 0;
    PolitenessSummary summary;
    std::optional<Series> series;  // Only kept for the final plotting run.
    bool keep_series = false;
  };
  std::vector<Cell> cells;
  for (const CrawlStrategy* strategy : strategies) {
    for (int connections : connection_counts) {
      Cell cell;
      cell.strategy = strategy;
      cell.connections = connections;
      cells.push_back(std::move(cell));
    }
  }
  // The time-domain crossover plot: hard-focused at 16 connections.
  {
    Cell cell;
    cell.strategy = &hard;
    cell.connections = 16;
    cell.keep_series = true;
    cells.push_back(std::move(cell));
  }

  ExperimentRunner runner(RunnerOptions(args));
  const int dataset = runner.AddDataset(&graph);
  std::vector<RunSpec> specs;
  for (Cell& cell : cells) {
    RunSpec spec;
    spec.name = StringPrintf("%s/conns=%d", cell.strategy->name().c_str(),
                             cell.connections);
    spec.dataset = dataset;
    Cell* c = &cell;
    spec.custom = [c, &args](const RunContext& context) -> Status {
      MetaTagClassifier classifier(Language::kThai);
      InMemoryLinkDb link_db(context.graph);
      VirtualWebSpace web(context.graph, &link_db, RenderMode::kNone);
      PolitenessOptions options;
      options.num_connections = c->connections;
      options.min_access_interval_sec = 1.0;
      options.obs = context.obs;
      options.progress_every = args.obs_out.progress_every;
      PolitenessSimulator sim(&web, &classifier, c->strategy, options);
      auto r = sim.Run();
      LSWC_RETURN_IF_ERROR(r.status());
      c->summary = r->summary;
      if (c->keep_series) c->series.emplace(std::move(r->series));
      return Status::OK();
    };
    specs.push_back(std::move(spec));
  }
  std::vector<RunResult> results = runner.Run(specs);
  AccumulateObs(&results, &report);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "%s\n", results[i].status.ToString().c_str());
      return 1;
    }
  }

  std::printf("\n%-36s %6s %11s %10s %8s %10s\n", "strategy", "conns",
              "sim time[s]", "pages/sec", "stall%", "coverage%");
  for (size_t i = 0; i + 1 < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const PolitenessSummary& s = cell.summary;
    std::printf("%-36s %6d %11.0f %10.1f %7.1f%% %9.1f\n",
                cell.strategy->name().c_str(), cell.connections,
                s.sim_time_sec, s.pages_per_sec,
                100.0 * s.politeness_stall_fraction, s.final_coverage_pct);
    BenchRunEntry entry;
    entry.name = specs[i].name;
    entry.wall_time_sec = results[i].wall_time_sec;
    entry.pages_crawled = s.pages_crawled;
    entry.coverage_pct = s.final_coverage_pct;
    report.AddRun(entry);
  }

  const Cell& plot = cells.back();
  std::printf("\n--- hard-focused, 16 connections: crawl progress over "
              "simulated time ---\n");
  EmitSeries(args, "ext_politeness_hard.dat", *plot.series, &report);
  std::printf("\nreading: the interval, not bandwidth, bounds throughput "
              "once the frontier concentrates on few hosts — the dynamics "
              "the paper wanted its simulator to capture next.\n");
  WriteReport(args, report);
  return 0;
}
