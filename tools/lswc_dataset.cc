// lswc_dataset — produce and inspect LSWCDS1 dataset files, the
// out-of-core companion to lswc_sim:
//
//   lswc_dataset generate --dataset=thai --pages=100000000 --out=thai.ds
//   lswc_dataset info thai.ds
//   lswc_dataset verify thai.ds
//
// `generate` streams the synthetic web space straight to disk in
// bounded memory (no in-RAM graph is ever built), `info` prints the
// meta/stats sections from the trailer without touching the record
// sections, and `verify` additionally checksums every section.

#include <cstdio>
#include <string>
#include <vector>

#include "core/front_end.h"
#include "obs/telemetry_plane.h"
#include "store/stored_web_graph.h"
#include "store/stream_generator.h"
#include "util/flags.h"
#include "util/sysinfo.h"

namespace lswc {
namespace {

int Generate(const DatasetFlags& dataset, const std::string& out) {
  const SyntheticWebOptions options = dataset.GeneratorOptions(dataset.preset);
  const Status status = store::GenerateWebGraphToFile(options, out);
  if (!status.ok()) {
    std::fprintf(stderr, "generate: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%s, %u pages, seed %llu)\n", out.c_str(),
              dataset.preset.c_str(), dataset.pages,
              static_cast<unsigned long long>(options.seed));
  const uint64_t rss = util::PeakRssBytes();
  if (rss != 0) {
    std::printf("peak rss: %.1f MiB\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));
  }
  return 0;
}

int Info(const std::string& path, bool verify) {
  store::StoredWebGraph::Options options;
  options.verify_checksums = verify;
  if (verify) {
    // One stderr line per completed section, so a multi-GiB verify
    // (dominated by the targets/pages scans) is visibly alive.
    options.verify_progress = [](const char* section, uint64_t section_bytes,
                                 uint64_t done_bytes, uint64_t total_bytes) {
      std::fprintf(stderr, "verify: %-7s %9.1f MiB OK (%5.1f%% of %.1f MiB)\n",
                   section,
                   static_cast<double>(section_bytes) / (1024.0 * 1024.0),
                   100.0 * static_cast<double>(done_bytes) /
                       static_cast<double>(total_bytes),
                   static_cast<double>(total_bytes) / (1024.0 * 1024.0));
    };
  }
  auto stored = store::StoredWebGraph::Open(path, options);
  if (!stored.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 stored.status().ToString().c_str());
    return 1;
  }
  const store::StoredWebGraph& ds = **stored;
  const WebGraph& graph = ds.graph();
  const store::DatasetStatsRecord& stats = ds.stats();
  std::printf("%s: LSWCDS1, %.1f MiB mapped%s\n", path.c_str(),
              static_cast<double>(ds.mapped_bytes()) / (1024.0 * 1024.0),
              verify ? ", all section checksums OK" : "");
  std::printf("  pages %zu | hosts %zu | links %zu | seeds %zu\n",
              graph.num_pages(), graph.num_hosts(), graph.num_links(),
              graph.seeds().size());
  std::printf("  target language %s | generator seed %llu\n",
              std::string(LanguageName(graph.target_language())).c_str(),
              static_cast<unsigned long long>(graph.generator_seed()));
  std::printf("  OK pages %llu | relevant %llu (%.1f%%) | irrelevant %llu\n",
              static_cast<unsigned long long>(stats.ok_html_pages),
              static_cast<unsigned long long>(stats.relevant_ok_pages),
              stats.ok_html_pages != 0
                  ? 100.0 * static_cast<double>(stats.relevant_ok_pages) /
                        static_cast<double>(stats.ok_html_pages)
                  : 0.0,
              static_cast<unsigned long long>(stats.irrelevant_ok_pages));
  return 0;
}

int Main(int argc, char** argv) {
  DatasetFlags dataset;
  std::string out;
  obs::TelemetryOptions telemetry;
  FlagTable table(
      "COMMAND [options]\n"
      "  generate --out=FILE  stream a synthetic web space to an LSWCDS1\n"
      "                       file in bounded memory (same bytes as in RAM)\n"
      "  info FILE            print the dataset's meta and stats sections\n"
      "  verify FILE          info + verify every section checksum\n"
      "generate's options, then the telemetry options of every command:");
  AddGeneratorFlags(&table, &dataset, /*with_preset=*/true);
  table.String("--out", "FILE", "the dataset file to write", &out);
  // Telemetry flags may sit anywhere on the line, before or after the
  // command's own arguments.
  obs::AddTelemetryFlags(&table, &telemetry);
  std::vector<std::string> positional;
  table.ParseOrExit(argc, argv, &positional);

  const std::string command = positional.empty() ? "" : positional[0];
  const bool generate = command == "generate" && positional.size() == 1;
  const bool inspect =
      (command == "info" || command == "verify") && positional.size() == 2;
  if (!generate && !inspect) {
    table.Fail("expected generate, info FILE or verify FILE");
  }
  if (generate && out.empty()) table.Fail("generate requires --out=FILE");
  for (const char* flag : {"--dataset", "--pages", "--seed", "--out"}) {
    if (inspect && table.given(flag)) {
      table.Fail(std::string(flag) + " applies to generate only");
    }
  }
  obs::ConfigureTelemetryPlaneFromFlags(telemetry, argv[0]);
  return generate ? Generate(dataset, out)
                  : Info(positional[1], command == "verify");
}

}  // namespace
}  // namespace lswc

int main(int argc, char** argv) { return lswc::Main(argc, argv); }
