// Crawl-log utility: inspect, convert and generate web spaces in both
// formats, the LSWCDS1 dataset file and the hand-editable text log (the
// import path for crawls made elsewhere). Every input may be either.
//
//   log_tool stats   <in>                   dataset statistics (Table 3)
//   log_tool to-text <in>  <out.txt>        -> text log
//   log_tool to-bin  <in>  <out.ds>         -> LSWCDS1 dataset file
//   log_tool gen     thai|japanese <pages> <out.ds>   synthesize
//   log_tool sample  <in> <pages> <out.ds>            BFS downscale

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "store/dataset_writer.h"
#include "store/stored_web_graph.h"
#include "webgraph/generator.h"
#include "webgraph/sample.h"
#include "webgraph/text_log.h"

namespace {

using lswc::ReadTextLogFile;
using lswc::StatusOr;
using lswc::WebGraph;

// Reads either format: an LSWCDS1 dataset file, else a text log.
StatusOr<WebGraph> ReadAnyLog(const std::string& path) {
  auto dataset = lswc::store::StoredWebGraph::ReadInRam(path);
  if (dataset.ok()) return dataset;
  return ReadTextLogFile(path);
}

int Stats(const std::string& path) {
  auto g = ReadAnyLog(path);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }
  const lswc::DatasetStats s = g->ComputeStats();
  std::printf("target language : %s\n",
              std::string(LanguageName(g->target_language())).c_str());
  std::printf("URLs            : %llu\n",
              static_cast<unsigned long long>(s.total_urls));
  std::printf("OK HTML pages   : %llu\n",
              static_cast<unsigned long long>(s.ok_html_pages));
  std::printf("relevant        : %llu (%.1f%%)\n",
              static_cast<unsigned long long>(s.relevant_ok_pages),
              100.0 * s.relevance_ratio());
  std::printf("irrelevant      : %llu\n",
              static_cast<unsigned long long>(s.irrelevant_ok_pages));
  std::printf("hosts           : %zu\n", g->num_hosts());
  std::printf("links           : %zu\n", g->num_links());
  std::printf("seeds           : %zu\n", g->seeds().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lswc;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s stats <in>\n"
                 "       %s to-text <in> <out.txt>\n"
                 "       %s to-bin <in> <out.ds>\n"
                 "       %s gen thai|japanese <pages> <out.ds>\n"
                 "       %s sample <in> <pages> <out.ds>\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "stats") return Stats(argv[2]);

  if (cmd == "to-text" || cmd == "to-bin") {
    if (argc != 4) {
      std::fprintf(stderr, "%s needs <in> <out>\n", cmd.c_str());
      return 2;
    }
    auto g = ReadAnyLog(argv[2]);
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 1;
    }
    const Status s = cmd == "to-text" ? WriteTextLogFile(*g, argv[3])
                                      : store::WriteDatasetFile(*g, argv[3]);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu pages)\n", argv[3], g->num_pages());
    return 0;
  }

  if (cmd == "gen") {
    if (argc != 5) {
      std::fprintf(stderr, "gen needs thai|japanese <pages> <out.ds>\n");
      return 2;
    }
    const uint32_t pages = static_cast<uint32_t>(std::atoi(argv[3]));
    auto options = std::strcmp(argv[2], "japanese") == 0
                       ? JapaneseLikeOptions(pages)
                       : ThaiLikeOptions(pages);
    auto g = GenerateWebGraph(options);
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 1;
    }
    if (Status s = store::WriteDatasetFile(*g, argv[4]); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu pages, %.1f%% relevant)\n", argv[4],
                g->num_pages(), 100.0 * g->ComputeStats().relevance_ratio());
    return 0;
  }
  if (cmd == "sample") {
    if (argc != 5) {
      std::fprintf(stderr, "sample needs <in> <pages> <out.ds>\n");
      return 2;
    }
    auto g = ReadAnyLog(argv[2]);
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 1;
    }
    SampleOptions options;
    options.max_pages = static_cast<uint32_t>(std::atoi(argv[3]));
    auto sampled = SampleBfsSubgraph(*g, options);
    if (!sampled.ok()) {
      std::fprintf(stderr, "%s\n", sampled.status().ToString().c_str());
      return 1;
    }
    if (Status s = store::WriteDatasetFile(*sampled, argv[4]); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu of %zu pages, %.1f%% relevant)\n", argv[4],
                sampled->num_pages(), g->num_pages(),
                100.0 * sampled->ComputeStats().relevance_ratio());
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
