// Cross-module integration tests: the full production pipeline
// (generate -> persist -> replay -> render bytes -> detect charset ->
// parse links -> canonicalize -> crawl) must agree with the fast trace
// path everywhere they overlap.

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "util/series.h"
#include "webgraph/crawl_log.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateWebGraph(ThaiLikeOptions(4000));
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }
  WebGraph graph_;
};

TEST_F(IntegrationTest, ParseHtmlModeMatchesTraceMode) {
  // The visitor's parse mode extracts anchors from the rendered bytes
  // (decoding first only pages it believes are ISO-2022-JP),
  // canonicalizes them and resolves them back to log entries; the
  // resulting crawl must be identical to replaying the link database.
  MetaTagClassifier classifier(Language::kThai);
  const SoftFocusedStrategy strategy;

  auto trace = RunSimulation(graph_, &classifier, strategy);
  ASSERT_TRUE(trace.ok());

  SimulationOptions parse_options;
  parse_options.parse_html = true;
  auto parsed = RunSimulation(graph_, &classifier, strategy,
                              RenderMode::kFull, parse_options);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  EXPECT_EQ(parsed->summary.pages_crawled, trace->summary.pages_crawled);
  EXPECT_EQ(parsed->summary.relevant_crawled,
            trace->summary.relevant_crawled);
  EXPECT_EQ(parsed->summary.max_queue_size, trace->summary.max_queue_size);
  EXPECT_DOUBLE_EQ(parsed->summary.final_coverage_pct,
                   trace->summary.final_coverage_pct);
}

// The Japanese pipeline of Fig 4: the detector judges rendered bytes in
// all three Japanese encodings, and the parse path must find exactly the
// link database's links, serially and on the sharded engine.
TEST(JapaneseIntegrationTest, ParseHtmlModeMatchesTraceMode) {
  auto graph = GenerateWebGraph(JapaneseLikeOptions(4000));
  ASSERT_TRUE(graph.ok());
  DetectorClassifier classifier(Language::kJapanese);
  const SoftFocusedStrategy strategy;
  for (const uint32_t shards : {0u, 2u}) {
    SimulationOptions trace_options;
    trace_options.shards = shards;
    auto trace = RunSimulation(*graph, &classifier, strategy,
                               RenderMode::kFull, trace_options);
    ASSERT_TRUE(trace.ok()) << trace.status();

    SimulationOptions parse_options = trace_options;
    parse_options.parse_html = true;
    auto parsed = RunSimulation(*graph, &classifier, strategy,
                                RenderMode::kFull, parse_options);
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    EXPECT_GT(trace->summary.pages_crawled, 1000u) << "shards " << shards;
    EXPECT_EQ(parsed->summary.pages_crawled, trace->summary.pages_crawled)
        << "shards " << shards;
    EXPECT_EQ(parsed->summary.relevant_crawled,
              trace->summary.relevant_crawled)
        << "shards " << shards;
    EXPECT_EQ(Fnv1aHash(parsed->series), Fnv1aHash(trace->series))
        << "shards " << shards;
  }
}

TEST_F(IntegrationTest, ParseHtmlRequiresFullRender) {
  MetaTagClassifier classifier(Language::kThai);
  const BreadthFirstStrategy strategy;
  SimulationOptions options;
  options.parse_html = true;
  auto r = RunSimulation(graph_, &classifier, strategy, RenderMode::kNone,
                         options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(IntegrationTest, PersistedLogReplaysIdentically) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lswc_integration.log")
          .string();
  ASSERT_TRUE(WriteCrawlLog(graph_, path).ok());
  auto loaded = ReadCrawlLog(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  MetaTagClassifier classifier(Language::kThai);
  const LimitedDistanceStrategy strategy(2, true);
  auto a = RunSimulation(graph_, &classifier, strategy);
  auto b = RunSimulation(*loaded, &classifier, strategy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->summary.pages_crawled, b->summary.pages_crawled);
  EXPECT_EQ(a->summary.relevant_crawled, b->summary.relevant_crawled);
  EXPECT_EQ(a->summary.max_queue_size, b->summary.max_queue_size);
}

TEST_F(IntegrationTest, DiskLinkDbDrivesSameCrawl) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lswc_integration.lnk")
          .string();
  ASSERT_TRUE(WriteLinkFile(graph_, path).ok());
  auto disk = DiskLinkDb::Open(path);
  ASSERT_TRUE(disk.ok());

  MetaTagClassifier classifier(Language::kThai);
  const HardFocusedStrategy strategy;

  auto in_memory = RunSimulation(graph_, &classifier, strategy);
  ASSERT_TRUE(in_memory.ok());

  VirtualWebSpace web(&graph_, disk->get(), RenderMode::kNone);
  Simulator sim(&web, &classifier, &strategy, SimulationOptions{});
  auto from_disk = sim.Run();
  ASSERT_TRUE(from_disk.ok());
  std::remove(path.c_str());

  EXPECT_EQ(from_disk->summary.pages_crawled,
            in_memory->summary.pages_crawled);
  EXPECT_EQ(from_disk->summary.relevant_crawled,
            in_memory->summary.relevant_crawled);
}

TEST_F(IntegrationTest, DetectorClassifierRunsOnRenderedHeads) {
  // The Japanese-experiment configuration end to end: detector judging
  // freshly rendered head bytes. Its crawl-time confusion must show
  // high precision (detector essentially never claims Japanese for a
  // non-Japanese page).
  auto g = GenerateWebGraph(JapaneseLikeOptions(4000));
  ASSERT_TRUE(g.ok());
  DetectorClassifier classifier(Language::kJapanese);
  const SoftFocusedStrategy strategy;
  auto r = RunSimulation(*g, &classifier, strategy, RenderMode::kHead);
  ASSERT_TRUE(r.ok());
  const ConfusionCounts& c = r->summary.classifier_confusion;
  EXPECT_GT(c.precision(), 0.97);
  EXPECT_GT(c.recall(), 0.80);
  EXPECT_DOUBLE_EQ(r->summary.final_coverage_pct, 100.0);
}

TEST_F(IntegrationTest, OracleBeatsRealClassifiersOnHardFocus) {
  // Classifier noise can only hurt hard-focused coverage; the oracle is
  // the upper bound.
  OracleClassifier oracle(Language::kThai);
  MetaTagClassifier meta(Language::kThai);
  const HardFocusedStrategy strategy;
  auto with_oracle = RunSimulation(graph_, &oracle, strategy);
  auto with_meta = RunSimulation(graph_, &meta, strategy);
  ASSERT_TRUE(with_oracle.ok());
  ASSERT_TRUE(with_meta.ok());
  EXPECT_GE(with_oracle->summary.final_coverage_pct,
            with_meta->summary.final_coverage_pct);
}

TEST_F(IntegrationTest, DeterministicEndToEnd) {
  MetaTagClassifier classifier(Language::kThai);
  const SoftFocusedStrategy strategy;
  auto a = RunSimulation(graph_, &classifier, strategy);
  auto b = RunSimulation(graph_, &classifier, strategy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->series.num_rows(), b->series.num_rows());
  for (size_t i = 0; i < a->series.num_rows(); ++i) {
    EXPECT_EQ(a->series.y(i, 0), b->series.y(i, 0));
    EXPECT_EQ(a->series.y(i, 2), b->series.y(i, 2));
  }
}

}  // namespace
}  // namespace lswc
