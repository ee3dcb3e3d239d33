#include "webgraph/link_db.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "store/dataset_writer.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

class LinkDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateWebGraph(ThaiLikeOptions(5000));
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    // Each case runs as its own concurrent ctest process
    // (gtest_discover_tests), so the scratch file must be per-test: a
    // shared path lets one process's SetUp rewrite or TearDown unlink
    // race another's reads.
    path_ =
        (std::filesystem::temp_directory_path() /
         (std::string("lswc_links_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          ".ds"))
            .string();
    ASSERT_TRUE(store::WriteDatasetFile(graph_, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  WebGraph graph_;
  std::string path_;
};

TEST_F(LinkDbTest, InMemoryServesGraphLinks) {
  InMemoryLinkDb db(&graph_);
  EXPECT_EQ(db.num_pages(), graph_.num_pages());
  std::vector<PageId> out;
  for (PageId p = 0; p < 200; ++p) {
    ASSERT_TRUE(db.GetOutlinks(p, &out).ok());
    const auto expected = graph_.outlinks(p);
    ASSERT_EQ(out.size(), expected.size()) << p;
    for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);
  }
}

TEST_F(LinkDbTest, InMemoryRejectsOutOfRange) {
  InMemoryLinkDb db(&graph_);
  std::vector<PageId> out;
  EXPECT_EQ(db.GetOutlinks(static_cast<PageId>(graph_.num_pages()), &out)
                .code(),
            StatusCode::kNotFound);
}

TEST_F(LinkDbTest, DiskMatchesInMemoryEverywhere) {
  auto db_or = DiskLinkDb::Open(path_);
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  auto& disk = **db_or;
  std::vector<PageId> out;
  for (PageId p = 0; p < graph_.num_pages(); ++p) {
    ASSERT_TRUE(disk.GetOutlinks(p, &out).ok()) << p;
    const auto expected = graph_.outlinks(p);
    ASSERT_EQ(out.size(), expected.size()) << p;
    for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], expected[i]);
  }
}

TEST_F(LinkDbTest, TinyBlocksSpanBoundaries) {
  DiskLinkDbOptions options;
  options.block_words = 7;  // Force every lookup across block seams.
  options.max_cached_blocks = 3;
  auto db_or = DiskLinkDb::Open(path_, options);
  ASSERT_TRUE(db_or.ok());
  auto& disk = **db_or;
  std::vector<PageId> out;
  for (PageId p = 0; p < 500; ++p) {
    ASSERT_TRUE(disk.GetOutlinks(p, &out).ok());
    const auto expected = graph_.outlinks(p);
    ASSERT_EQ(out.size(), expected.size()) << p;
    for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], expected[i]);
  }
  EXPECT_LE(disk.cached_blocks(), options.max_cached_blocks);
}

TEST_F(LinkDbTest, LruCachesHotBlocks) {
  DiskLinkDbOptions options;
  options.block_words = 1024;
  options.max_cached_blocks = 4;
  auto db_or = DiskLinkDb::Open(path_, options);
  ASSERT_TRUE(db_or.ok());
  auto& disk = **db_or;
  std::vector<PageId> out;
  // Repeated access to one page must hit the cache after the first miss.
  ASSERT_TRUE(disk.GetOutlinks(1, &out).ok());
  const uint64_t misses_after_first = disk.cache_misses();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(disk.GetOutlinks(1, &out).ok());
  }
  EXPECT_EQ(disk.cache_misses(), misses_after_first);
  EXPECT_GE(disk.cache_hits(), 100u);
}

TEST_F(LinkDbTest, DiskRejectsOutOfRange) {
  auto db_or = DiskLinkDb::Open(path_);
  ASSERT_TRUE(db_or.ok());
  std::vector<PageId> out;
  EXPECT_EQ((*db_or)
                ->GetOutlinks(static_cast<PageId>(graph_.num_pages()), &out)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db_or)->GetOutlinks(UINT32_MAX, &out).code(),
            StatusCode::kNotFound);
}

TEST_F(LinkDbTest, SingleEntryCacheStaysCorrect) {
  DiskLinkDbOptions options;
  options.block_words = 16;  // Long lists straddle many blocks.
  options.max_cached_blocks = 1;
  auto db_or = DiskLinkDb::Open(path_, options);
  ASSERT_TRUE(db_or.ok());
  auto& disk = **db_or;
  std::vector<PageId> out;
  // Ping-pong between distant pages: every lookup evicts the previous
  // block, yet answers must stay exact.
  const PageId far_page = static_cast<PageId>(graph_.num_pages() - 1);
  for (int round = 0; round < 5; ++round) {
    for (PageId p : {PageId{0}, far_page, PageId{1}, PageId{0}}) {
      ASSERT_TRUE(disk.GetOutlinks(p, &out).ok()) << p;
      const auto expected = graph_.outlinks(p);
      ASSERT_EQ(out.size(), expected.size()) << p;
      for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], expected[i]);
    }
  }
  EXPECT_LE(disk.cached_blocks(), 1u);
  EXPECT_GT(disk.cache_evictions(), 0u);
  // Invariant of any bounded cache walk: every miss either filled a
  // free slot or evicted.
  EXPECT_EQ(disk.cache_misses(), disk.cache_evictions() + disk.cached_blocks());
}

TEST_F(LinkDbTest, EvictionIsLeastRecentlyUsed) {
  DiskLinkDbOptions options;
  options.block_words = 1024;
  options.max_cached_blocks = 2;
  auto db_or = DiskLinkDb::Open(path_, options);
  ASSERT_TRUE(db_or.ok());
  auto& disk = **db_or;
  std::vector<PageId> out;
  // Find three pages in three distinct blocks.
  PageId in_block[3];
  uint64_t block_of[3];
  size_t found = 0;
  uint64_t links_before = 0;
  for (PageId p = 0; p < graph_.num_pages() && found < 3; ++p) {
    const uint64_t block = links_before / options.block_words;
    const size_t n = graph_.outlinks(p).size();
    if (n != 0 &&
        (links_before + n - 1) / options.block_words == block &&
        (found == 0 || block != block_of[found - 1])) {
      in_block[found] = p;
      block_of[found] = block;
      ++found;
    }
    links_before += n;
  }
  ASSERT_EQ(found, 3u);

  // Touch A, B (cache = {A, B}), re-touch A, then load C: B — the least
  // recently used — must be the eviction victim, so A stays a hit.
  ASSERT_TRUE(disk.GetOutlinks(in_block[0], &out).ok());
  ASSERT_TRUE(disk.GetOutlinks(in_block[1], &out).ok());
  ASSERT_TRUE(disk.GetOutlinks(in_block[0], &out).ok());
  ASSERT_TRUE(disk.GetOutlinks(in_block[2], &out).ok());
  EXPECT_EQ(disk.cache_evictions(), 1u);
  const uint64_t misses = disk.cache_misses();
  ASSERT_TRUE(disk.GetOutlinks(in_block[0], &out).ok());
  EXPECT_EQ(disk.cache_misses(), misses);  // A survived the eviction.
  ASSERT_TRUE(disk.GetOutlinks(in_block[1], &out).ok());
  EXPECT_EQ(disk.cache_misses(), misses + 1);  // B did not.
}

TEST_F(LinkDbTest, AttachObsExportsCacheCounters) {
  DiskLinkDbOptions options;
  options.block_words = 64;
  options.max_cached_blocks = 2;
  auto db_or = DiskLinkDb::Open(path_, options);
  ASSERT_TRUE(db_or.ok());
  auto& disk = **db_or;
  obs::MetricsRegistry registry;
  disk.AttachObs(&registry);
  std::vector<PageId> out;
  for (PageId p = 0; p < 200; ++p) {
    ASSERT_TRUE(disk.GetOutlinks(p, &out).ok());
  }
  EXPECT_EQ(registry.counter("linkdb.cache_hits")->value(),
            disk.cache_hits());
  EXPECT_EQ(registry.counter("linkdb.cache_misses")->value(),
            disk.cache_misses());
  EXPECT_EQ(registry.counter("linkdb.cache_evictions")->value(),
            disk.cache_evictions());
  EXPECT_GT(disk.cache_misses(), 0u);
}

TEST_F(LinkDbTest, OpenRejectsGarbage) {
  const std::string bad =
      (std::filesystem::temp_directory_path() / "lswc_bad.lnk").string();
  std::ofstream(bad, std::ios::binary) << "JUNKJUNKJUNK";
  EXPECT_FALSE(DiskLinkDb::Open(bad).ok());
  std::remove(bad.c_str());
}

TEST_F(LinkDbTest, OpenRejectsBadOptions) {
  DiskLinkDbOptions options;
  options.block_words = 0;
  EXPECT_FALSE(DiskLinkDb::Open(path_, options).ok());
}

}  // namespace
}  // namespace lswc
