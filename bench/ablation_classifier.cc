// Ablation A1 (DESIGN.md): how the relevance-judgment method (§3.2)
// changes crawl outcomes on the Thai dataset. The paper fixes one
// classifier per dataset; this ablation quantifies what that choice
// costs by running hard- and soft-focused crawls under:
//   - meta-tag       (the paper's Thai setup; blind to missing/wrong META)
//   - detector       (byte distribution on rendered heads; needs Thai
//                     support, which the paper's era detector lacked)
//   - meta+detector  (production composite)
//   - oracle         (perfect judgment; upper bound)

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace lswc;
  using namespace lswc::bench;
  BenchArgs args = BenchArgs::Parse(argc, argv);
  if (args.dataset.pages > 300'000) args.dataset.pages = 300'000;  // 8 full crawls.
  BenchReport report = MakeReport("ablation_classifier", args);

  std::printf("=== Ablation: classifier choice, Thai dataset ===\n");
  const WebGraph graph = BuildThaiDataset(args);
  PrintDatasetStats("Thai", graph);

  struct Config {
    std::string label;
    ClassifierFactory factory;
    RenderMode render;
  };
  const Config configs[] = {
      {MetaTagClassifier(Language::kThai).name(),
       ClassifierOf<MetaTagClassifier>(Language::kThai), RenderMode::kNone},
      {DetectorClassifier(Language::kThai).name(),
       ClassifierOf<DetectorClassifier>(Language::kThai), RenderMode::kHead},
      {CompositeClassifier(Language::kThai).name(),
       ClassifierOf<CompositeClassifier>(Language::kThai), RenderMode::kHead},
      {OracleClassifier(Language::kThai).name(),
       ClassifierOf<OracleClassifier>(Language::kThai), RenderMode::kNone},
  };

  // One grid of 2 strategies x 4 classifiers; rows print per strategy
  // section below, in grid order.
  const HardFocusedStrategy hard;
  const SoftFocusedStrategy soft_strategy;
  std::vector<GridRun> grid;
  for (bool soft : {false, true}) {
    for (const Config& config : configs) {
      GridRun run;
      run.name = std::string(soft ? "soft" : "hard") + "/" + config.label;
      run.strategy = soft
                         ? static_cast<const CrawlStrategy*>(&soft_strategy)
                         : static_cast<const CrawlStrategy*>(&hard);
      run.classifier = config.factory;
      run.render_mode = config.render;
      grid.push_back(std::move(run));
    }
  }
  const std::vector<GridResult> results =
      RunGrid(args, graph, ClassifierOf<MetaTagClassifier>(Language::kThai),
              std::move(grid), &report, /*print=*/false);

  size_t next = 0;
  for (bool soft : {false, true}) {
    std::printf("\n--- %s ---\n", soft ? "soft-focused" : "hard-focused");
    std::printf("%-24s %10s %10s %10s %10s %10s\n", "classifier",
                "coverage%", "harvest%", "maxqueue", "precision", "recall");
    for (const Config& config : configs) {
      const SimulationSummary& s = results[next++].result.summary;
      const ConfusionCounts& c = s.classifier_confusion;
      std::printf("%-24s %9.1f%% %9.1f%% %10zu %10.3f %10.3f\n",
                  config.label.c_str(), s.final_coverage_pct,
                  s.final_harvest_pct, s.max_queue_size, c.precision(),
                  c.recall());
    }
  }
  std::printf("\nreading: the oracle row is the structural limit of the "
              "strategy; the gap between meta-tag and oracle is the cost "
              "of charset noise (missing/mislabeled META, UTF-8 pages).\n");
  WriteReport(args, report);
  return 0;
}
