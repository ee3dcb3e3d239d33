#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/shard.h"
#include "core/simulator.h"
#include "obs/run_obs.h"
#include "tests/test_util.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

constexpr Language kThai = Language::kThai;

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

// A shard slice's level front must be its oldest entry (the merge pops
// by level, then seq). A payload out of sequence order is Corruption,
// and a failed restore leaves the slice as it was.
TEST(ShardFrontierTest, RestoreRejectsALevelOutOfSequenceOrder) {
  ShardFrontier slice(2);
  slice.Push(7, 1, 3);
  slice.Push(8, 0, 4);

  snapshot::SectionWriter w;
  w.U64(2);  // Levels.
  w.U64(2);  // Level 1: two entries, seq 9 before seq 6.
  w.U64(9);
  w.U32(1);
  w.U64(6);
  w.U32(2);
  w.U64(0);  // Level 0: empty.
  snapshot::SectionReader r(w.data().data(), w.size());
  EXPECT_EQ(slice.Restore(&r).code(), StatusCode::kCorruption);

  ASSERT_EQ(slice.size(), 2u);
  const auto head = slice.PeekHead();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->url, 7u);
  EXPECT_EQ(head->seq, 3u);
}

// The host hash is a pure function of the name, and a realistic host
// population lands on every shard.
TEST(ShardRouterTest, HostHashIsStableAndSpreads) {
  EXPECT_EQ(ShardOfHostName("host-123.example", 4),
            ShardOfHostName("host-123.example", 4));
  EXPECT_EQ(ShardOfHostName("anything", 1), 0u);
  std::vector<int> hits(4, 0);
  for (int h = 0; h < 200; ++h) {
    ++hits[ShardOfHostName("host-" + std::to_string(h) + ".example", 4)];
  }
  for (int s = 0; s < 4; ++s) EXPECT_GT(hits[s], 0) << "shard " << s;
}

// Every FetchEvent carries the shard that owns the URL's host, and it
// agrees with the router's public hash.
TEST(ShardedEngineTest, FetchEventsReportOwningShard) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  MetaTagClassifier classifier(kThai);
  const SoftFocusedStrategy soft;

  class ShardRecorder final : public CrawlObserver {
   public:
    void OnFetch(const FetchEvent& event) override {
      events.emplace_back(event.url, event.shard);
    }
    std::vector<std::pair<PageId, uint32_t>> events;
  };
  ShardRecorder recorder;
  SimulationOptions options;
  options.shards = 3;
  options.max_pages = 500;
  options.observers = {&recorder};
  auto r = RunSimulation(*g, &classifier, soft, RenderMode::kNone, options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(recorder.events.size(), 500u);
  for (const auto& [url, shard] : recorder.events) {
    const uint32_t host = g->page(url).host;
    EXPECT_EQ(shard, ShardOfHostName(g->HostName(host), 3)) << "url " << url;
  }
}

// The tentpole contract, half one: `shards = 1` reproduces the serial
// engine's pinned Fig 3 / Fig 7 characterization numbers bit-for-bit
// (same goldens as core_crawl_engine_test); half two: a multi-shard run
// reproduces the same numbers again, so sharding is output-invisible.
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

class ShardedCharacterizationTest : public ::testing::TestWithParam<Golden> {
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

const WebGraph* ShardedCharacterizationTest::graph_ = nullptr;

TEST_P(ShardedCharacterizationTest, AnyShardCountMatchesSerialGoldens) {
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
  for (const uint32_t shards : {1u, 4u}) {
    SimulationOptions options;
    options.shards = shards;
    auto r = RunSimulation(*graph_, &classifier, *strategy,
                           RenderMode::kNone, options);
    ASSERT_TRUE(r.ok()) << "shards=" << shards << ": " << r.status();
    EXPECT_EQ(r->summary.pages_crawled, golden.crawled) << "shards=" << shards;
    EXPECT_EQ(r->summary.relevant_crawled, golden.relevant)
        << "shards=" << shards;
    EXPECT_EQ(r->summary.max_queue_size, golden.max_queue)
        << "shards=" << shards;
    EXPECT_EQ(r->series.num_rows(), golden.rows) << "shards=" << shards;
    EXPECT_EQ(HashSeries(r->series), golden.series_hash)
        << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig3AndFig7, ShardedCharacterizationTest,
    ::testing::Values(
        Golden{0, 20000, 7127, 6069, 400, 15743984519801078086ull},
        Golden{-1, 4964, 4315, 1414, 100, 6310386566933041546ull},
        Golden{-2, 20000, 7127, 5019, 400, 2334370632168096454ull},
        Golden{1, 8626, 6302, 2618, 173, 7395945938940880717ull},
        Golden{2, 12623, 6788, 3566, 253, 12093792697655121282ull},
        Golden{3, 17477, 7046, 4929, 350, 12094443813074163390ull},
        Golden{4, 19896, 7125, 4940, 398, 1907275703385427400ull}));

// Beyond the crawl outputs, the deterministic observability quantities
// (stage call counts, registry counters and histograms) must agree
// between shard counts — parallel speculation may not change how much
// work the crawl performs.
TEST(ShardedEngineTest, ObsStatsIdenticalAcrossShardCounts) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  MetaTagClassifier classifier(kThai);
  const SoftFocusedStrategy soft;

  auto run = [&](uint32_t shards, std::string* stats) {
    obs::RunObs obs;
    SimulationOptions options;
    options.shards = shards;
    options.obs = &obs;
    auto r = RunSimulation(*g, &classifier, soft, RenderMode::kNone, options);
    if (r.ok()) *stats = obs.StatsJson(/*include_times=*/false);
    return r;
  };
  std::string stats1;
  std::string stats3;
  auto r1 = run(1, &stats1);
  ASSERT_TRUE(r1.ok()) << r1.status();
  auto r3 = run(3, &stats3);
  ASSERT_TRUE(r3.ok()) << r3.status();

  EXPECT_EQ(r1->summary.pages_crawled, r3->summary.pages_crawled);
  EXPECT_EQ(r1->summary.relevant_crawled, r3->summary.relevant_crawled);
  EXPECT_EQ(r1->summary.max_queue_size, r3->summary.max_queue_size);
  EXPECT_EQ(HashSeries(r1->series), HashSeries(r3->series));
  EXPECT_EQ(stats1, stats3);
}

// Counts Judge() calls across the original and every clone the sharded
// engine makes, split by thread: speculative visits run on the pool's
// workers, inline visits (a speculation miss) on the thread that runs
// the crawl loop.
struct JudgeCounts {
  std::thread::id loop_thread = std::this_thread::get_id();
  std::atomic<uint64_t> speculative{0};
  std::atomic<uint64_t> inline_visits{0};
};

class CountingClassifier final : public Classifier {
 public:
  CountingClassifier(Language target, JudgeCounts* counts)
      : inner_(target), counts_(counts) {}
  RelevanceJudgment Judge(const FetchResponse& response) override {
    (std::this_thread::get_id() == counts_->loop_thread
         ? counts_->inline_visits
         : counts_->speculative)
        .fetch_add(1, std::memory_order_relaxed);
    return inner_.Judge(response);
  }
  Language target_language() const override {
    return inner_.target_language();
  }
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<CountingClassifier>(inner_.target_language(),
                                                counts_);
  }

 private:
  MetaTagClassifier inner_;
  JudgeCounts* counts_;
};

// The sharded engine's visit work: speculative visits planned per round
// and inline visits on a speculation miss. The counts pin the round
// structure (when a round starts, what it plans, what it commits), which
// no output hash sees but which sets the parallel engine's CPU time.
TEST(ShardedEngineTest, VisitWorkIsPinned) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  const SoftFocusedStrategy soft;
  struct Expected {
    uint32_t shards;
    uint64_t speculative;
    uint64_t inline_visits;
  };
  for (const Expected& expected :
       {Expected{1, 2493, 507}, Expected{4, 2493, 507}}) {
    JudgeCounts counts;
    CountingClassifier classifier(kThai, &counts);
    SimulationOptions options;
    options.shards = expected.shards;
    auto r = RunSimulation(*g, &classifier, soft, RenderMode::kNone, options);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(counts.speculative.load(), expected.speculative)
        << "shards=" << expected.shards;
    EXPECT_EQ(counts.inline_visits.load(), expected.inline_visits)
        << "shards=" << expected.shards;
  }
}

// A classifier that cannot Clone() falls back to one shared instance
// behind a mutex: still deterministic, still equal to shards=1.
class UncloneableClassifier final : public Classifier {
 public:
  explicit UncloneableClassifier(Language target) : inner_(target) {}
  RelevanceJudgment Judge(const FetchResponse& response) override {
    return inner_.Judge(response);
  }
  Language target_language() const override {
    return inner_.target_language();
  }
  std::string name() const override { return inner_.name(); }
  // No Clone() override: the base returns null, forcing the locked path.

 private:
  MetaTagClassifier inner_;
};

TEST(ShardedEngineTest, UncloneableClassifierUsesLockedFallback) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  const SoftFocusedStrategy soft;
  auto run = [&](uint32_t shards) {
    UncloneableClassifier classifier(kThai);
    SimulationOptions options;
    options.shards = shards;
    return RunSimulation(*g, &classifier, soft, RenderMode::kNone, options);
  };
  auto r1 = run(1);
  ASSERT_TRUE(r1.ok()) << r1.status();
  auto r4 = run(4);
  ASSERT_TRUE(r4.ok()) << r4.status();
  EXPECT_EQ(r1->summary.pages_crawled, r4->summary.pages_crawled);
  EXPECT_EQ(HashSeries(r1->series), HashSeries(r4->series));
}

// A capacity-bounded or disk-spilling frontier cannot be sharded; the
// simulator surfaces MakeShardFrontiers' named error.
TEST(ShardedEngineTest, BoundedFrontierOptionsAreRejected) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  MetaTagClassifier classifier(kThai);
  const SoftFocusedStrategy soft;
  SimulationOptions options;
  options.shards = 2;
  options.frontier_capacity = 64;
  auto r = RunSimulation(*g, &classifier, soft, RenderMode::kNone, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("frontier_capacity"), std::string::npos)
      << r.status();
}

// Satellite: merge-determinism stress. A barrier in the visit phase
// holds every shard's worker until all of the round's tasks arrived,
// then releases them in a different shuffled order each repetition. If
// any crawl output depended on worker timing, some repetition would
// diverge from the single-shard reference.
class ShuffleBarrier {
 public:
  explicit ShuffleBarrier(uint32_t seed) : rng_(seed) {}

  void Arrive(uint32_t shard, uint32_t tasks_in_round) {
    std::unique_lock<std::mutex> lock(mu_);
    arrived_.push_back(shard);
    if (arrived_.size() == tasks_in_round) {
      release_ = arrived_;
      arrived_.clear();
      std::shuffle(release_.begin(), release_.end(), rng_);
      next_ = 0;
      cv_.notify_all();
    }
    cv_.wait(lock, [&] {
      return next_ < release_.size() && release_[next_] == shard;
    });
    ++next_;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::mt19937 rng_;
  std::vector<uint32_t> arrived_;
  std::vector<uint32_t> release_;
  size_t next_ = 0;
};

// The batch regime's determinism contract: the serial BatchFrontier,
// the one-shard engine, and a multi-shard engine must produce the same
// crawl bit-for-bit — selection is a pure function of the global
// pending set, so the partition must not matter.
TEST(ShardedEngineTest, BatchRegimeIsIdenticalAcrossShardCounts) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  MetaTagClassifier classifier(kThai);
  const SoftFocusedStrategy soft;

  auto run = [&](uint32_t shards, std::string* stats) {
    obs::RunObs obs;
    SimulationOptions options;
    options.shards = shards;
    options.frontier_kind = "batch";
    options.batch_k = 64;
    options.scorers = "lang:1.0,indegree:0.5";
    options.obs = &obs;
    auto r = RunSimulation(*g, &classifier, soft, RenderMode::kNone, options);
    if (r.ok() && stats != nullptr) {
      *stats = obs.StatsJson(/*include_times=*/false);
    }
    return r;
  };
  auto serial = run(0, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_GT(serial->summary.pages_crawled, 500u);

  std::string stats1;
  std::string stats4;
  auto sharded1 = run(1, &stats1);
  ASSERT_TRUE(sharded1.ok()) << sharded1.status();
  auto sharded4 = run(4, &stats4);
  ASSERT_TRUE(sharded4.ok()) << sharded4.status();

  for (const auto* r : {&*sharded1, &*sharded4}) {
    EXPECT_EQ(r->summary.pages_crawled, serial->summary.pages_crawled);
    EXPECT_EQ(r->summary.relevant_crawled, serial->summary.relevant_crawled);
    EXPECT_EQ(r->summary.max_queue_size, serial->summary.max_queue_size);
    EXPECT_EQ(r->series.num_rows(), serial->series.num_rows());
    EXPECT_EQ(HashSeries(r->series), HashSeries(serial->series));
  }
  // The deterministic obs quantities (rescore rounds, scored / selected
  // URL counts above all) agree between shard counts too.
  EXPECT_EQ(stats1, stats4);
}

TEST(ShardedEngineTest, ShuffledWorkerWakeupOrderNeverChangesOutput) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000, /*seed=*/11));
  ASSERT_TRUE(g.ok()) << g.status();
  MetaTagClassifier classifier(kThai);
  const SoftFocusedStrategy soft;

  SimulationOptions reference_options;
  reference_options.shards = 1;
  auto reference = RunSimulation(*g, &classifier, soft, RenderMode::kNone,
                                 reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const uint64_t reference_hash = HashSeries(reference->series);

  for (uint32_t rep = 0; rep < 10; ++rep) {
    InMemoryLinkDb link_db(&*g);
    VirtualWebSpace web(&*g, &link_db, RenderMode::kNone);
    ShardedEngineOptions options;
    options.num_shards = 4;
    auto engine = ShardedCrawlEngine::Create(&web, &classifier, &soft,
                                             FrontierOptions{}, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ShuffleBarrier barrier(/*seed=*/1000 + rep);
    (*engine)->set_visit_start_hook(
        [&barrier](uint32_t shard, uint32_t tasks_in_round) {
          barrier.Arrive(shard, tasks_in_round);
        });
    Status status = (*engine)->Run();
    ASSERT_TRUE(status.ok()) << "rep " << rep << ": " << status;
    EXPECT_EQ((*engine)->pages_crawled(), reference->summary.pages_crawled)
        << "rep " << rep;
    EXPECT_EQ((*engine)->max_frontier_size(),
              reference->summary.max_queue_size)
        << "rep " << rep;
    EXPECT_EQ(HashSeries((*engine)->metrics().series()), reference_hash)
        << "rep " << rep;
  }
}

}  // namespace
}  // namespace lswc
