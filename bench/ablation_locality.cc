// Ablation A2 (DESIGN.md): language locality is the paper's enabling
// assumption ("focused crawling assumes topical locality ... it is
// necessary to ensure language locality in the Web"). The dominant
// locality source is language coherence along intra-host link structure,
// so this harness sweeps the generator's per-link language flip rate
// from the web-like 3% to a locality-free 50% (each page's language
// independent of its parent) and shows the focused crawler's advantage
// collapsing onto the breadth-first baseline. Each flip-rate cell
// (graph build + 3 crawls) runs on its own worker under --jobs=N.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace lswc;
  using namespace lswc::bench;
  BenchArgs args = BenchArgs::Parse(argc, argv);
  if (args.dataset.pages > 200'000) args.dataset.pages = 200'000;  // Many graphs below.
  BenchReport report = MakeReport("ablation_locality", args);

  std::printf("=== Ablation: language locality sweep, Thai-like dataset ===\n");
  std::printf("%-8s %8s %12s | %26s | %10s\n", "flip", "rel[%]",
              "P(rel|rel)", "early harvest[%] @10% crawl", "hard cov[%]");
  std::printf("%-8s %8s %12s | %8s %8s %8s | %10s\n", "rate", "", "", "bfs",
              "hard", "lift", "");

  struct Row {
    double flip = 0.0;
    double relevance_pct = 0.0;
    double locality = 0.0;
    double bfs_harvest = 0.0;
    double hard_harvest = 0.0;
    double hard_full_coverage = 0.0;
  };
  const double flips[] = {0.03, 0.10, 0.20, 0.35, 0.50};
  Row rows[std::size(flips)];

  ExperimentRunner runner(RunnerOptions(args));
  std::vector<RunSpec> specs;
  for (size_t i = 0; i < std::size(flips); ++i) {
    const double flip = flips[i];
    Row* row = &rows[i];
    RunSpec spec;
    spec.name = StringPrintf("flip=%.2f", flip);
    spec.custom = [flip, row, &args](const RunContext& context) -> Status {
      SyntheticWebOptions options = args.dataset.GeneratorOptions("thai");
      options.language_flip_rate = flip;
      // Cross-host bias adds locality too; scale it down with the flips
      // so the 0.5 end is genuinely locality-free.
      options.same_language_bias = std::max(0.0, 0.85 * (1.0 - 2 * flip));
      auto graph = GenerateWebGraph(options);
      LSWC_RETURN_IF_ERROR(graph.status());
      const DatasetStats stats = graph->ComputeStats();

      // Measured locality: P(child relevant | parent relevant).
      uint64_t rel_out = 0, rel_to_rel = 0;
      for (PageId p = 0; p < graph->num_pages(); ++p) {
        if (!graph->page(p).ok() ||
            graph->page(p).language != Language::kThai) {
          continue;
        }
        for (PageId c : graph->outlinks(p)) {
          ++rel_out;
          rel_to_rel += graph->page(c).language == Language::kThai ? 1 : 0;
        }
      }

      MetaTagClassifier classifier(Language::kThai);
      SimulationOptions budget;
      budget.max_pages = graph->num_pages() / 10;
      budget.obs = context.obs;
      budget.progress_every = args.obs_out.progress_every;
      auto bfs = RunSimulation(*graph, &classifier, BreadthFirstStrategy(),
                               RenderMode::kNone, budget);
      LSWC_RETURN_IF_ERROR(bfs.status());
      auto hard = RunSimulation(*graph, &classifier, HardFocusedStrategy(),
                                RenderMode::kNone, budget);
      LSWC_RETURN_IF_ERROR(hard.status());
      SimulationOptions full;
      full.obs = context.obs;
      full.progress_every = args.obs_out.progress_every;
      auto hard_full = RunSimulation(*graph, &classifier,
                                     HardFocusedStrategy(),
                                     RenderMode::kNone, full);
      LSWC_RETURN_IF_ERROR(hard_full.status());

      row->flip = flip;
      row->relevance_pct = 100.0 * stats.relevance_ratio();
      row->locality =
          rel_out == 0 ? 0 : static_cast<double>(rel_to_rel) / rel_out;
      row->bfs_harvest = bfs->summary.final_harvest_pct;
      row->hard_harvest = hard->summary.final_harvest_pct;
      row->hard_full_coverage = hard_full->summary.final_coverage_pct;
      return Status::OK();
    };
    specs.push_back(std::move(spec));
  }

  std::vector<RunResult> results = runner.Run(specs);
  AccumulateObs(&results, &report);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   results[i].status.ToString().c_str());
      return 1;
    }
    const Row& row = rows[i];
    const double lift =
        row.hard_harvest / std::max(1.0, row.bfs_harvest);
    std::printf("%-8.2f %8.1f %12.3f | %8.1f %8.1f %8.2f | %10.1f\n",
                row.flip, row.relevance_pct, row.locality, row.bfs_harvest,
                row.hard_harvest, lift, row.hard_full_coverage);
    BenchRunEntry entry;
    entry.name = specs[i].name;
    entry.wall_time_sec = results[i].wall_time_sec;
    entry.harvest_pct = row.hard_harvest;
    entry.coverage_pct = row.hard_full_coverage;
    report.AddRun(entry);
  }
  std::printf("\nreading: as P(rel child | rel parent) falls toward the "
              "base relevance rate, the focused crawler's harvest lift "
              "falls toward 1.0x — without language locality there is "
              "nothing for a language-specific crawler to exploit.\n");
  WriteReport(args, report);
  return 0;
}
