#include "core/crawl_engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/politeness.h"
#include "core/simulator.h"
#include "tests/test_util.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

using ::lswc::testing::MakeGraph;
using ::lswc::testing::PageSpec;

constexpr Language kThai = Language::kThai;
constexpr Language kOther = Language::kOther;

/// Records the exact fetch order — the observable that must match
/// between the timeless simulator and a zero-delay politeness run.
class OrderRecorder final : public CrawlObserver {
 public:
  void OnFetch(const FetchEvent& event) override {
    order.push_back(event.url);
  }
  std::vector<PageId> order;
};

/// Counts every link-expansion outcome via the opt-in per-link bus.
class LinkEventCounter final : public CrawlObserver {
 public:
  bool wants_link_events() const override { return true; }
  void OnEnqueue(PageId, const LinkDecision&) override { ++enqueued; }
  void OnRePush(PageId, const LinkDecision&) override { ++repushed; }
  void OnDrop(PageId, LinkDropReason reason) override {
    switch (reason) {
      case LinkDropReason::kAlreadyCrawled: ++dropped_crawled; break;
      case LinkDropReason::kStrategyDiscard: ++dropped_strategy; break;
      case LinkDropReason::kNotBetter: ++dropped_not_better; break;
    }
  }
  uint64_t enqueued = 0;
  uint64_t repushed = 0;
  uint64_t dropped_crawled = 0;
  uint64_t dropped_strategy = 0;
  uint64_t dropped_not_better = 0;
};

uint64_t HashSeries(const Series& s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over double bit patterns.
  auto mix = [&](double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t r = 0; r < s.num_rows(); ++r) {
    mix(s.x(r));
    for (size_t c = 0; c < s.num_columns(); ++c) mix(s.y(r, c));
  }
  return h;
}

// Regression for the int8_t priority narrowing bug: with prioritized
// limited-distance at N = 130, priorities exceed int8_t range. The old
// per-URL priority store wrapped 130 to -126, so the better-referrer
// test saw any later referrer as "better" and overwrote a distance-0
// annotation with a worse one — losing the relevant page sitting at
// exactly distance N. CrawlState stores int16_t, so the worse referrer
// is correctly ignored.
TEST(CrawlEngineTest, PriorityAboveInt8RangeSurvivesWorseReferrer) {
  constexpr int kN = 130;
  // 0(T) -> {1(T), 2(O)}; 1 -> 3; 2 -> 3; 3 -> chain of 129 O pages ->
  // 133(T). Page 3's first referrer (relevant page 1) gives it distance
  // 0; the irrelevant referrer 2 offers distance 1 and must lose. Only
  // then does the 130-hop budget exactly reach page 133.
  std::vector<PageSpec> pages;
  pages.push_back(PageSpec{0, kThai});   // 0: seed.
  pages.push_back(PageSpec{0, kThai});   // 1: relevant referrer.
  pages.push_back(PageSpec{0, kOther});  // 2: worse referrer.
  pages.push_back(PageSpec{0, kOther});  // 3: contested page.
  for (int i = 0; i < 129; ++i) pages.push_back(PageSpec{0, kOther});
  pages.push_back(PageSpec{0, kThai});   // 133: at distance exactly N.
  std::vector<std::pair<PageId, PageId>> links = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (PageId p = 3; p < 133; ++p) links.emplace_back(p, p + 1);
  const WebGraph g = MakeGraph(std::move(pages), std::move(links), {0});

  MetaTagClassifier classifier(kThai);
  const LimitedDistanceStrategy strategy(kN, /*prioritized=*/true);
  auto r = RunSimulation(g, &classifier, strategy);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->summary.pages_crawled, 134u);
  // 0, 1 and the distance-N page 133. The int8_t bug loses page 133.
  EXPECT_EQ(r->summary.relevant_crawled, 3u);
  EXPECT_DOUBLE_EQ(r->summary.final_coverage_pct, 100.0);
}

// Every link-expansion outcome is visible on the observer bus, with the
// per-link callbacks gated behind wants_link_events().
TEST(CrawlEngineTest, ObserverBusReportsEveryLinkOutcome) {
  // 0(T) -> {1(O), 2(T)}; 1 -> 4; 2 -> 3(T); 3 -> 4 twice (re-push then
  // not-better); 4(O) -> {5(T), 6(O)}; 5 -> 0 (already crawled);
  // 6 -> 7(T) (beyond N = 1, strategy discard).
  const WebGraph g = MakeGraph(
      {PageSpec{0, kThai}, PageSpec{0, kOther}, PageSpec{0, kThai},
       PageSpec{0, kThai}, PageSpec{0, kOther}, PageSpec{0, kThai},
       PageSpec{0, kOther}, PageSpec{0, kThai}},
      {{0, 1}, {0, 2}, {1, 4}, {2, 3}, {3, 4}, {3, 4}, {4, 5}, {4, 6},
       {5, 0}, {6, 7}},
      {0});
  MetaTagClassifier classifier(kThai);
  const LimitedDistanceStrategy strategy(1, /*prioritized=*/true);
  OrderRecorder order;
  LinkEventCounter counter;
  SimulationOptions options;
  options.observers = {&order, &counter};
  auto r = RunSimulation(g, &classifier, strategy, RenderMode::kNone,
                         options);
  ASSERT_TRUE(r.ok()) << r.status();

  EXPECT_EQ(order.order, (std::vector<PageId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(counter.enqueued, 6u);           // 1, 2, 4, 3, 5, 6.
  EXPECT_EQ(counter.repushed, 1u);           // 4, via relevant page 3.
  EXPECT_EQ(counter.dropped_not_better, 1u); // 3's duplicate link to 4.
  EXPECT_EQ(counter.dropped_crawled, 1u);    // 5 -> 0.
  EXPECT_EQ(counter.dropped_strategy, 1u);   // 6 -> 7 beyond distance N.
}

// With every politeness delay zero (one connection, zero latency and
// access interval, infinite bandwidth) the per-host scheduler's
// tie-breaking — highest pending priority, then global enqueue order —
// collapses to exactly the timeless simulator's bucket-queue order, so
// both drivers of the shared CrawlEngine visit pages identically.
class EngineParityTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineParityTest, ZeroDelayPolitenessMatchesSimulatorOrder) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  MetaTagClassifier classifier(kThai);

  const BreadthFirstStrategy bfs;
  const SoftFocusedStrategy soft;
  const LimitedDistanceStrategy limited(2, /*prioritized=*/true);
  const CrawlStrategy* strategies[] = {&bfs, &soft, &limited};
  const CrawlStrategy& strategy = *strategies[GetParam()];

  OrderRecorder plain_order;
  SimulationOptions plain_options;
  plain_options.observers = {&plain_order};
  auto plain = RunSimulation(*g, &classifier, strategy, RenderMode::kNone,
                             plain_options);
  ASSERT_TRUE(plain.ok()) << plain.status();

  OrderRecorder timed_order;
  PolitenessOptions timed_options;
  timed_options.num_connections = 1;
  timed_options.base_latency_sec = 0.0;
  timed_options.min_access_interval_sec = 0.0;
  timed_options.bandwidth_bytes_per_sec =
      std::numeric_limits<double>::infinity();
  timed_options.observers = {&timed_order};
  InMemoryLinkDb db(&*g);
  VirtualWebSpace web(&*g, &db, RenderMode::kNone);
  PolitenessSimulator sim(&web, &classifier, &strategy, timed_options);
  auto timed = sim.Run();
  ASSERT_TRUE(timed.ok()) << timed.status();

  ASSERT_EQ(plain_order.order.size(), timed_order.order.size());
  EXPECT_EQ(plain_order.order, timed_order.order);
  EXPECT_EQ(plain->summary.relevant_crawled,
            timed->summary.relevant_crawled);
}

INSTANTIATE_TEST_SUITE_P(Strategies, EngineParityTest,
                         ::testing::Values(0, 1, 2));

// Characterization pin: the refactor must not perturb the fixed-seed
// Fig 3 / Fig 7 numbers. Counts and the FNV-1a hash over every series
// double were captured from the pre-engine simulator; any drift in the
// crawl loop, frontier selection, or sampling cadence changes a hash.
struct Golden {
  int limited_n;  // 0 = bfs, -1 = hard, -2 = soft, else N.
  uint64_t crawled;
  uint64_t relevant;
  size_t max_queue;
  size_t rows;
  uint64_t series_hash;
};

// Names each case by its strategy, e.g. `soft` or `plimited-3`; gtest
// would otherwise print the struct's bytes, padding included.
void PrintTo(const Golden& golden, std::ostream* os) {
  switch (golden.limited_n) {
    case 0: *os << "bfs"; break;
    case -1: *os << "hard"; break;
    case -2: *os << "soft"; break;
    default: *os << "plimited-" << golden.limited_n;
  }
}

class CharacterizationTest : public ::testing::TestWithParam<Golden> {
 public:
  static void SetUpTestSuite() {
    auto g = GenerateWebGraph(ThaiLikeOptions(20000, /*seed=*/7));
    ASSERT_TRUE(g.ok()) << g.status();
    graph_ = new WebGraph(std::move(g).value());
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

 protected:
  static const WebGraph* graph_;
};

const WebGraph* CharacterizationTest::graph_ = nullptr;

TEST_P(CharacterizationTest, FixedSeedSeriesUnchangedByEngineRefactor) {
  const Golden& golden = GetParam();
  MetaTagClassifier classifier(kThai);
  const BreadthFirstStrategy bfs;
  const HardFocusedStrategy hard;
  const SoftFocusedStrategy soft;
  const CrawlStrategy* strategy = nullptr;
  std::unique_ptr<LimitedDistanceStrategy> limited;
  switch (golden.limited_n) {
    case 0: strategy = &bfs; break;
    case -1: strategy = &hard; break;
    case -2: strategy = &soft; break;
    default:
      limited = std::make_unique<LimitedDistanceStrategy>(
          golden.limited_n, /*prioritized=*/true);
      strategy = limited.get();
  }
  auto r = RunSimulation(*graph_, &classifier, *strategy);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->summary.pages_crawled, golden.crawled);
  EXPECT_EQ(r->summary.relevant_crawled, golden.relevant);
  EXPECT_EQ(r->summary.max_queue_size, golden.max_queue);
  EXPECT_EQ(r->series.num_rows(), golden.rows);
  EXPECT_EQ(HashSeries(r->series), golden.series_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Fig3AndFig7, CharacterizationTest,
    ::testing::Values(
        Golden{0, 20000, 7127, 6069, 400, 15743984519801078086ull},
        Golden{-1, 4964, 4315, 1414, 100, 6310386566933041546ull},
        Golden{-2, 20000, 7127, 5019, 400, 2334370632168096454ull},
        Golden{1, 8626, 6302, 2618, 173, 7395945938940880717ull},
        Golden{2, 12623, 6788, 3566, 253, 12093792697655121282ull},
        Golden{3, 17477, 7046, 4929, 350, 12094443813074163390ull},
        Golden{4, 19896, 7125, 4940, 398, 1907275703385427400ull}));

}  // namespace
}  // namespace lswc
