// Section 3 of the paper: before adapting focused crawling the authors
// sample the Thai dataset and report three observations that justify the
// language-locality assumption. This harness recomputes all three over
// the whole dataset (not a sample) plus the degree shape behind them,
// fanning the four analyses across --jobs workers.
//
//   1) "In most cases, Thai web pages are linked by other Thai pages."
//   2) "In some cases, Thai pages are reachable only through non-Thai
//       web pages."
//   3) "In some cases, Thai pages are mislabeled as non-Thai pages."

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "webgraph/analysis.h"

int main(int argc, char** argv) {
  using namespace lswc;
  using namespace lswc::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report = MakeReport("section3_observations", args);

  std::printf("=== Section 3: language-locality evidence, Thai dataset ===\n");
  const WebGraph graph = BuildThaiDataset(args);
  PrintDatasetStats("Thai", graph);

  LocalityStats loc;
  InlinkStats in;
  DeclarationStats decl;
  DegreeStats deg;
  ExperimentRunner runner(RunnerOptions(args));
  const int dataset = runner.AddDataset(&graph);
  struct Analysis {
    const char* name;
    CustomRunFn run;
  };
  const Analysis analyses[] = {
      {"locality", [&loc](const RunContext& c) {
         loc = ComputeLocality(*c.graph);
         return Status::OK();
       }},
      {"inlinks", [&in](const RunContext& c) {
         in = ComputeInlinkStats(*c.graph);
         return Status::OK();
       }},
      {"declarations", [&decl](const RunContext& c) {
         decl = ComputeDeclarationStats(*c.graph);
         return Status::OK();
       }},
      {"degrees", [&deg](const RunContext& c) {
         deg = ComputeDegreeStats(*c.graph);
         return Status::OK();
       }},
  };
  std::vector<RunSpec> specs;
  for (const Analysis& analysis : analyses) {
    RunSpec spec;
    spec.name = analysis.name;
    spec.dataset = dataset;
    spec.custom = analysis.run;
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
    report.AddRun(entry);
  }

  std::printf("\nobservation 1 — link-level locality:\n");
  std::printf("  P(child Thai | parent Thai)     = %.3f\n",
              loc.p_rel_given_rel());
  std::printf("  P(child Thai | parent non-Thai) = %.3f\n",
              loc.p_rel_given_irr());
  std::printf("  P(child Thai)  [base rate]      = %.3f\n",
              loc.p_rel_base());
  std::printf("  link matrix: T->T %llu | T->O %llu | O->T %llu | O->O %llu\n",
              static_cast<unsigned long long>(loc.rel_to_rel),
              static_cast<unsigned long long>(loc.rel_to_irr),
              static_cast<unsigned long long>(loc.irr_to_rel),
              static_cast<unsigned long long>(loc.irr_to_irr));

  std::printf("\nobservation 2 — Thai pages behind non-Thai referrers:\n");
  std::printf("  Thai pages with a Thai referrer        %10llu (%.1f%%)\n",
              static_cast<unsigned long long>(in.with_relevant_referrer),
              100.0 * in.with_relevant_referrer /
                  std::max<uint64_t>(1, in.relevant_pages));
  std::printf("  Thai pages with ONLY non-Thai referrers%10llu (%.1f%%)\n",
              static_cast<unsigned long long>(in.only_irrelevant_referrers),
              100.0 * in.only_irrelevant_referrers /
                  std::max<uint64_t>(1, in.relevant_pages));
  std::printf("  Thai pages with no referrers (seeds)   %10llu\n",
              static_cast<unsigned long long>(in.no_referrers));

  std::printf("\nobservation 3 — charset declarations on Thai pages:\n");
  std::printf("  correctly declared Thai charset %10llu (%.1f%%)\n",
              static_cast<unsigned long long>(decl.correctly_declared),
              100.0 * decl.correctly_declared /
                  std::max<uint64_t>(1, decl.relevant_pages));
  std::printf("  no META charset at all          %10llu (%.1f%%)\n",
              static_cast<unsigned long long>(decl.undeclared),
              100.0 * decl.undeclared /
                  std::max<uint64_t>(1, decl.relevant_pages));
  std::printf("  mislabeled as another charset   %10llu (%.1f%%)\n",
              static_cast<unsigned long long>(decl.mislabeled),
              100.0 * decl.mislabeled /
                  std::max<uint64_t>(1, decl.relevant_pages));
  std::printf("  authored in UTF-8 (no signal)   %10llu (%.1f%%)\n",
              static_cast<unsigned long long>(decl.language_neutral_encoding),
              100.0 * decl.language_neutral_encoding /
                  std::max<uint64_t>(1, decl.relevant_pages));

  std::printf("\ngraph shape:\n");
  std::printf("  mean out-degree %.2f (max %u), mean in-degree %.2f "
              "(max %u)\n",
              deg.mean_out_degree, deg.max_out_degree, deg.mean_in_degree,
              deg.max_in_degree);
  std::printf("  in-degree-1 periphery: %.1f%% of pages\n",
              100.0 * deg.in_degree_one_fraction);
  WriteReport(args, report);
  return 0;
}
