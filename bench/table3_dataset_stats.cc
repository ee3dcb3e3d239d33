// Table 3: characteristics of the experimental datasets — relevant,
// irrelevant and total OK-status HTML pages for the Thai-like and
// Japanese-like synthetic web spaces.
//
// Paper values (for shape comparison): Thai 1,467,643 / 2,419,301 /
// 3,886,944 (≈35% relevant); Japanese 67,983,623 / 27,200,355 /
// 95,183,978 (≈71% relevant). The synthetic datasets reproduce the
// *ratios* at a configurable scale (--pages), which is what the crawling
// dynamics depend on. With --jobs>=2 the two datasets are generated on
// separate workers.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace lswc;
  using namespace lswc::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report = MakeReport("table3_dataset_stats", args);

  std::printf("=== Table 3: characteristics of experimental datasets ===\n");
  ExperimentRunner runner(RunnerOptions(args));
  const int datasets[] = {
      runner.AddDataset(args.dataset.GeneratorOptions("thai")),
      runner.AddDataset(args.dataset.GeneratorOptions("japanese"))};
  DatasetStats stats[2];
  std::vector<RunSpec> specs;
  for (int i = 0; i < 2; ++i) {
    RunSpec spec;
    spec.name = i == 0 ? "thai" : "japanese";
    spec.dataset = datasets[i];
    spec.custom = [&stats, i](const RunContext& context) {
      stats[i] = context.graph->ComputeStats();
      return Status::OK();
    };
    specs.push_back(std::move(spec));
  }
  std::vector<RunResult> results = runner.Run(specs);
  AccumulateObs(&results, &report);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "%s: %s\n", specs[i].name.c_str(),
                   results[i].status.ToString().c_str());
      return 1;
    }
    BenchRunEntry entry;
    entry.name = specs[i].name;
    entry.wall_time_sec = results[i].wall_time_sec;
    entry.pages_crawled = stats[i].ok_html_pages;
    entry.relevant_crawled = stats[i].relevant_ok_pages;
    report.AddRun(entry);
  }
  const DatasetStats& t = stats[0];
  const DatasetStats& j = stats[1];

  std::printf("\n%-26s %14s %14s\n", "", "Thai", "Japanese");
  std::printf("%-26s %14llu %14llu\n", "Relevant HTML pages",
              static_cast<unsigned long long>(t.relevant_ok_pages),
              static_cast<unsigned long long>(j.relevant_ok_pages));
  std::printf("%-26s %14llu %14llu\n", "Irrelevant HTML pages",
              static_cast<unsigned long long>(t.irrelevant_ok_pages),
              static_cast<unsigned long long>(j.irrelevant_ok_pages));
  std::printf("%-26s %14llu %14llu\n", "Total HTML pages",
              static_cast<unsigned long long>(t.ok_html_pages),
              static_cast<unsigned long long>(j.ok_html_pages));
  std::printf("%-26s %13.1f%% %13.1f%%\n", "Relevance ratio",
              100.0 * t.relevance_ratio(), 100.0 * j.relevance_ratio());
  std::printf("%-26s %14s %14s\n", "Paper's relevance ratio", "~35%",
              "~71%");
  std::printf("\n(non-200 URLs excluded from the table, as in the paper: "
              "Thai total %llu, Japanese total %llu)\n",
              static_cast<unsigned long long>(t.total_urls),
              static_cast<unsigned long long>(j.total_urls));
  WriteReport(args, report);
  return 0;
}
