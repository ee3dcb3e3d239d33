// The paper's Thai web-archiving experiment, end to end:
//   1. build a Thai-like web space and persist it as an LSWCDS1
//      dataset file (the artifact a real crawl would have produced),
//   2. reload the file the way the trace-driven simulator does,
//   3. evaluate every §3.3 strategy on it — breadth-first, simple
//      hard/soft, limited-distance N=1..4 in both modes,
//   4. print the comparison table and write gnuplot-ready series.
//
// Run:  thai_web_archive [pages] [out.ds]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/classifier.h"
#include "core/simulator.h"
#include "core/strategy.h"
#include "store/dataset_writer.h"
#include "store/stored_web_graph.h"
#include "webgraph/generator.h"

int main(int argc, char** argv) {
  using namespace lswc;
  const uint32_t pages =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 200'000;
  const std::string path = argc > 2 ? argv[2] : "thai_archive.ds";

  // 1. The "real crawl": synthesize the web space and write it out.
  auto generated = GenerateWebGraph(ThaiLikeOptions(pages));
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  if (Status s = store::WriteDatasetFile(*generated, path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("dataset written to %s\n", path.c_str());

  // 2. Trace-driven replay: everything below only touches the file image.
  auto graph_or = store::StoredWebGraph::ReadInRam(path);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  const WebGraph& graph = *graph_or;
  const DatasetStats stats = graph.ComputeStats();
  std::printf("replaying %zu URLs (%llu OK pages, %.1f%% Thai)\n\n",
              graph.num_pages(),
              static_cast<unsigned long long>(stats.ok_html_pages),
              100.0 * stats.relevance_ratio());

  // 3. Evaluate the strategy zoo with the paper's Thai classifier.
  MetaTagClassifier classifier(Language::kThai);
  std::vector<std::unique_ptr<CrawlStrategy>> strategies;
  strategies.push_back(std::make_unique<BreadthFirstStrategy>());
  strategies.push_back(std::make_unique<HardFocusedStrategy>());
  strategies.push_back(std::make_unique<SoftFocusedStrategy>());
  for (int n = 1; n <= 4; ++n) {
    strategies.push_back(std::make_unique<LimitedDistanceStrategy>(n, false));
  }
  for (int n = 1; n <= 4; ++n) {
    strategies.push_back(std::make_unique<LimitedDistanceStrategy>(n, true));
  }

  std::printf("%-38s %9s %9s %9s %10s\n", "strategy", "crawled", "harvest%",
              "coverage%", "max queue");
  for (const auto& strategy : strategies) {
    auto result = RunSimulation(graph, &classifier, *strategy);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const SimulationSummary& s = result->summary;
    std::printf("%-38s %9llu %9.1f %9.1f %10zu\n", strategy->name().c_str(),
                static_cast<unsigned long long>(s.pages_crawled),
                s.final_harvest_pct, s.final_coverage_pct, s.max_queue_size);
    // 4. Per-strategy series for plotting.
    const std::string dat =
        "thai_archive_" + strategy->name() + ".dat";
    if (Status st = result->series.WriteDatFile(dat); !st.ok()) {
      std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
    }
  }
  std::printf("\nper-strategy series written as thai_archive_<name>.dat "
              "(columns: pages harvest coverage queue)\n");
  return 0;
}
