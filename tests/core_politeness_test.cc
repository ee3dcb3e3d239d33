#include "core/politeness.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "tests/test_util.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

using ::lswc::testing::MakeChain;
using ::lswc::testing::MakeGraph;
using ::lswc::testing::PageSpec;

constexpr Language kThai = Language::kThai;
constexpr Language kOther = Language::kOther;

PolitenessResult RunPolite(const WebGraph& g, const CrawlStrategy& strategy,
                     PolitenessOptions options = {}) {
  MetaTagClassifier classifier(kThai);
  InMemoryLinkDb db(&g);
  VirtualWebSpace web(&g, &db, RenderMode::kNone);
  PolitenessSimulator sim(&web, &classifier, &strategy, options);
  auto r = sim.Run();
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(EstimateTransferBytesTest, ScalesWithContentAndEncoding) {
  PageRecord ascii;
  ascii.content_chars = 1000;
  ascii.true_encoding = Encoding::kAscii;
  PageRecord euc = ascii;
  euc.true_encoding = Encoding::kEucJp;
  EXPECT_GT(EstimateTransferBytes(euc), EstimateTransferBytes(ascii));
  PageRecord dead;
  dead.http_status = 404;
  EXPECT_LT(EstimateTransferBytes(dead), EstimateTransferBytes(ascii));
}

TEST(PolitenessTest, CrawlsSameSetAsPlainSimulator) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000));
  ASSERT_TRUE(g.ok());
  MetaTagClassifier classifier(kThai);
  const BreadthFirstStrategy strategy;
  auto plain = RunSimulation(*g, &classifier, strategy);
  ASSERT_TRUE(plain.ok());
  const PolitenessResult timed = RunPolite(*g, strategy);
  // Politeness reorders fetches but never changes what BFS can reach.
  EXPECT_EQ(timed.summary.pages_crawled, plain->summary.pages_crawled);
  EXPECT_EQ(timed.summary.relevant_crawled,
            plain->summary.relevant_crawled);
}

TEST(PolitenessTest, AccessIntervalBoundsSameHostThroughput) {
  // A single host with a chain of 20 pages: with a 1-second interval the
  // crawl needs >= 19 seconds of simulated time no matter how many
  // connections exist.
  std::vector<Language> chain(20, kThai);
  const WebGraph g = MakeChain(chain);
  PolitenessOptions options;
  options.min_access_interval_sec = 1.0;
  options.num_connections = 16;
  const PolitenessResult r = RunPolite(g, BreadthFirstStrategy(), options);
  EXPECT_EQ(r.summary.pages_crawled, 20u);
  EXPECT_GE(r.summary.sim_time_sec, 19.0);
}

TEST(PolitenessTest, ManyHostsParallelizeAroundTheInterval) {
  // The same 20 pages spread across 20 hosts crawl far faster than one
  // host serialized by the access interval.
  std::vector<PageSpec> pages;
  std::vector<std::pair<PageId, PageId>> links;
  for (uint32_t h = 0; h < 20; ++h) pages.push_back(PageSpec{h, kThai});
  for (PageId p = 1; p < 20; ++p) links.emplace_back(0, p);
  const WebGraph many_hosts = MakeGraph(pages, links, {0});
  PolitenessOptions options;
  options.min_access_interval_sec = 1.0;
  options.num_connections = 8;
  const PolitenessResult fast = RunPolite(many_hosts, BreadthFirstStrategy(),
                                    options);
  const WebGraph one_host = MakeChain(std::vector<Language>(20, kThai));
  const PolitenessResult slow = RunPolite(one_host, BreadthFirstStrategy(),
                                    options);
  EXPECT_EQ(fast.summary.pages_crawled, 20u);
  EXPECT_LT(fast.summary.sim_time_sec, slow.summary.sim_time_sec / 2);
}

TEST(PolitenessTest, StallFractionHighWhenHostBound) {
  const WebGraph g = MakeChain(std::vector<Language>(30, kThai));
  PolitenessOptions options;
  options.min_access_interval_sec = 2.0;
  options.num_connections = 4;
  const PolitenessResult r = RunPolite(g, BreadthFirstStrategy(), options);
  EXPECT_GT(r.summary.politeness_stall_fraction, 0.0);
}

TEST(PolitenessTest, MaxSimTimeStopsTheClock) {
  const WebGraph g = MakeChain(std::vector<Language>(50, kThai));
  PolitenessOptions options;
  options.min_access_interval_sec = 1.0;
  options.max_sim_time_sec = 5.0;
  const PolitenessResult r = RunPolite(g, BreadthFirstStrategy(), options);
  EXPECT_LT(r.summary.pages_crawled, 50u);
}

TEST(PolitenessTest, MaxPagesStops) {
  const WebGraph g = MakeChain(std::vector<Language>(50, kThai));
  PolitenessOptions options;
  options.max_pages = 7;
  const PolitenessResult r = RunPolite(g, BreadthFirstStrategy(), options);
  EXPECT_EQ(r.summary.pages_crawled, 7u);
}

TEST(PolitenessTest, RejectsBadOptions) {
  const WebGraph g = MakeChain({kThai});
  MetaTagClassifier classifier(kThai);
  InMemoryLinkDb db(&g);
  VirtualWebSpace web(&g, &db, RenderMode::kNone);
  const BreadthFirstStrategy strategy;
  PolitenessOptions options;
  options.num_connections = 0;
  PolitenessSimulator sim(&web, &classifier, &strategy, options);
  EXPECT_FALSE(sim.Run().ok());
}

TEST(PolitenessTest, RejectsNonFiniteOrNegativeTimes) {
  const WebGraph g = MakeChain({kThai});
  MetaTagClassifier classifier(kThai);
  InMemoryLinkDb db(&g);
  VirtualWebSpace web(&g, &db, RenderMode::kNone);
  const BreadthFirstStrategy strategy;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    double PolitenessOptions::*member;
    double value;
  };
  const Case cases[] = {
      {"min_access_interval_sec", &PolitenessOptions::min_access_interval_sec,
       nan},
      {"min_access_interval_sec", &PolitenessOptions::min_access_interval_sec,
       inf},
      {"min_access_interval_sec", &PolitenessOptions::min_access_interval_sec,
       -1.0},
      {"base_latency_sec", &PolitenessOptions::base_latency_sec, nan},
      {"base_latency_sec", &PolitenessOptions::base_latency_sec, -0.5},
      {"max_sim_time_sec", &PolitenessOptions::max_sim_time_sec, inf},
      {"max_sim_time_sec", &PolitenessOptions::max_sim_time_sec, -1.0},
      {"bandwidth_bytes_per_sec", &PolitenessOptions::bandwidth_bytes_per_sec,
       nan},
      {"bandwidth_bytes_per_sec", &PolitenessOptions::bandwidth_bytes_per_sec,
       -inf},
  };
  for (const Case& c : cases) {
    PolitenessOptions options;
    options.*c.member = c.value;
    PolitenessSimulator sim(&web, &classifier, &strategy, options);
    const auto r = sim.Run();
    ASSERT_FALSE(r.ok()) << c.field << " = " << c.value;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(c.field), std::string::npos)
        << r.status();
  }
  // Zero is a valid time everywhere (no interval, latency or limit), and
  // infinite bandwidth makes transfers instant.
  PolitenessOptions zero;
  zero.min_access_interval_sec = 0.0;
  zero.base_latency_sec = 0.0;
  zero.max_sim_time_sec = 0.0;
  zero.bandwidth_bytes_per_sec = inf;
  EXPECT_EQ(RunPolite(g, strategy, zero).summary.sim_time_sec, 0.0);
}

TEST(PolitenessTest, ThroughputReportedConsistently) {
  const WebGraph g = MakeChain(std::vector<Language>(10, kThai));
  const PolitenessResult r = RunPolite(g, BreadthFirstStrategy());
  ASSERT_GT(r.summary.sim_time_sec, 0.0);
  EXPECT_NEAR(r.summary.pages_per_sec,
              static_cast<double>(r.summary.pages_crawled) /
                  r.summary.sim_time_sec,
              1e-9);
}

}  // namespace
}  // namespace lswc
