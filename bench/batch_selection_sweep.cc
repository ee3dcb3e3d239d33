// Batch-selection regime vs the paper's pop-order strategies.
//
// The paper's five strategies (Fig 3 / Fig 7) pop one URL at a time in
// priority order. The batch regime (Crawl4LLM-style) instead selects
// the top batch_k pending URLs by score every iteration and crawls them;
// a smaller K tracks the scorer more tightly with more selection rounds.
// This harness sweeps K and the scorer spec against the pop-order
// baselines on both datasets:
//
//   Thai:     bfs / hard / soft / limited-3 / plimited-3 baselines,
//             batch K in {16, 64, 256, 1024} with the default
//             lang+parent scorer, and one K=256 run with an indegree
//             term mixed in.
//   Japanese: soft / plimited-3 baselines vs batch K in {64, 256}.
//
//   batch_thai_harvest.dat / batch_thai_coverage.dat /
//   batch_thai_queue.dat / batch_japanese_harvest.dat
//
// plus a final-harvest comparison table. CI runs this at reduced scale
// and pins the series hashes: the batch regime is deterministic, so any
// drift is a real behavior change (see EXPERIMENTS.md).

#include <cstdio>

#include "bench/bench_common.h"

namespace {

using namespace lswc;
using namespace lswc::bench;

GridRun BatchRun(std::string name, const CrawlStrategy* strategy,
                 uint32_t batch_k, std::string scorers,
                 RenderMode render_mode = RenderMode::kNone) {
  GridRun run;
  run.name = std::move(name);
  run.strategy = strategy;
  run.render_mode = render_mode;
  run.options.frontier_kind = "batch";
  run.options.batch_k = batch_k;
  run.options.scorers = std::move(scorers);
  return run;
}

void PrintComparison(const char* dataset,
                     const std::vector<GridResult>& runs) {
  std::printf("\n--- %s: final harvest / coverage by regime ---\n", dataset);
  std::printf("%-28s %10s %10s %12s\n", "run", "harvest%", "coverage%",
              "max queue");
  for (const GridResult& run : runs) {
    std::printf("%-28s %10.2f %10.2f %12llu\n", run.name.c_str(),
                run.result.summary.final_harvest_pct,
                run.result.summary.final_coverage_pct,
                static_cast<unsigned long long>(
                    run.result.summary.max_queue_size));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report = MakeReport("batch_selection_sweep", args);

  std::printf("=== Batch selection sweep: top-K selection vs pop order ===\n");

  const BreadthFirstStrategy bfs;
  const HardFocusedStrategy hard;
  const SoftFocusedStrategy soft;
  const LimitedDistanceStrategy limited3(3, /*prioritized=*/false);
  const LimitedDistanceStrategy plimited3(3, /*prioritized=*/true);

  // --- Thai dataset: baselines + the K sweep ---
  {
    const WebGraph graph = BuildThaiDataset(args);
    PrintDatasetStats("Thai", graph);
    std::vector<GridRun> grid;
    grid.emplace_back("breadth-first", &bfs);
    grid.emplace_back("hard-focused", &hard);
    grid.emplace_back("soft-focused", &soft);
    grid.emplace_back("limited-3", &limited3);
    grid.emplace_back("plimited-3", &plimited3);
    for (const uint32_t k : {16u, 64u, 256u, 1024u}) {
      grid.push_back(BatchRun("batch-k" + std::to_string(k), &soft, k,
                              /*scorers=*/""));
    }
    grid.push_back(BatchRun("batch-k256-indegree", &soft, 256,
                            "lang:1.0,parent:0.5,indegree:0.5"));
    const std::vector<GridResult> runs = RunGrid(
        args, graph, ClassifierOf<MetaTagClassifier>(Language::kThai),
        std::move(grid), &report);

    std::printf("\n--- Thai: harvest rate [%%] ---\n");
    EmitSeries(args, "batch_thai_harvest.dat",
               MergeColumn(runs, 0, "pages_crawled"), &report);
    std::printf("\n--- Thai: coverage [%%] ---\n");
    EmitSeries(args, "batch_thai_coverage.dat",
               MergeColumn(runs, 1, "pages_crawled"), &report);
    std::printf("\n--- Thai: queue size ---\n");
    EmitSeries(args, "batch_thai_queue.dat",
               MergeColumn(runs, 2, "pages_crawled"), &report);
    PrintComparison("Thai", runs);
  }

  // --- Japanese dataset: the detector classifier, reduced grid ---
  {
    const WebGraph graph = BuildJapaneseDataset(args);
    PrintDatasetStats("Japanese", graph);
    std::vector<GridRun> grid;
    GridRun soft_run("soft-focused", &soft);
    soft_run.render_mode = RenderMode::kHead;
    grid.push_back(std::move(soft_run));
    GridRun plimited_run("plimited-3", &plimited3);
    plimited_run.render_mode = RenderMode::kHead;
    grid.push_back(std::move(plimited_run));
    for (const uint32_t k : {64u, 256u}) {
      grid.push_back(BatchRun("batch-k" + std::to_string(k), &soft, k,
                              /*scorers=*/"", RenderMode::kHead));
    }
    const std::vector<GridResult> runs = RunGrid(
        args, graph, ClassifierOf<DetectorClassifier>(Language::kJapanese),
        std::move(grid), &report);

    std::printf("\n--- Japanese: harvest rate [%%] ---\n");
    EmitSeries(args, "batch_japanese_harvest.dat",
               MergeColumn(runs, 0, "pages_crawled"), &report);
    PrintComparison("Japanese", runs);
  }

  WriteReport(args, report);
  return 0;
}
