// The out-of-core store's core contracts: the streamed generator writes
// byte-for-byte what the materialize-then-write path writes, a mapped
// dataset is indistinguishable from the in-RAM graph it came from, and
// corruption anywhere in the file is rejected at open.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "store/dataset_writer.h"
#include "store/memory_budget.h"
#include "store/mmap_link_db.h"
#include "store/stored_web_graph.h"
#include "store/stream_generator.h"
#include "webgraph/content_gen.h"
#include "webgraph/generator.h"
#include "webgraph/link_db.h"

namespace lswc::store {
namespace {

std::string TestPath(const char* suffix) {
  return (std::filesystem::temp_directory_path() /
          (std::string("lswc_store_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix))
      .string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

/// Every observable property of `got` equals `want` — the "a replayed
/// dataset IS the graph" contract: counts, identity, seeds, every page
/// field, the outlinks, and the bodies rendered from them.
void ExpectGraphsEqual(const WebGraph& got, const WebGraph& want) {
  ASSERT_EQ(got.num_pages(), want.num_pages());
  ASSERT_EQ(got.num_hosts(), want.num_hosts());
  ASSERT_EQ(got.num_links(), want.num_links());
  EXPECT_EQ(got.target_language(), want.target_language());
  EXPECT_EQ(got.generator_seed(), want.generator_seed());
  ASSERT_EQ(got.seeds().size(), want.seeds().size());
  for (size_t i = 0; i < got.seeds().size(); ++i) {
    EXPECT_EQ(got.seeds()[i], want.seeds()[i]);
  }
  for (PageId p = 0; p < got.num_pages(); ++p) {
    const PageRecord& a = got.page(p);
    const PageRecord& b = want.page(p);
    ASSERT_EQ(a.http_status, b.http_status) << p;
    ASSERT_EQ(a.language, b.language) << p;
    ASSERT_EQ(a.true_encoding, b.true_encoding) << p;
    ASSERT_EQ(a.meta_charset, b.meta_charset) << p;
    ASSERT_EQ(a.host, b.host) << p;
    ASSERT_EQ(a.content_chars, b.content_chars) << p;
    const auto la = got.outlinks(p);
    const auto lb = want.outlinks(p);
    ASSERT_EQ(la.size(), lb.size()) << p;
    for (size_t i = 0; i < la.size(); ++i) ASSERT_EQ(la[i], lb[i]) << p;
  }
  // Rendering is seeded from the generator seed the file carries, so
  // the replayed bodies are byte-identical.
  for (PageId p = 0; p < 20 && p < got.num_pages(); ++p) {
    EXPECT_EQ(RenderPageBody(got, p).value(), RenderPageBody(want, p).value())
        << p;
  }
}

class StoreDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_ = ThaiLikeOptions(4000);
    auto g = GenerateWebGraph(options_);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    path_ = TestPath(".ds");
    ASSERT_TRUE(WriteDatasetFile(graph_, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  SyntheticWebOptions options_;
  WebGraph graph_;
  std::string path_;
};

TEST_F(StoreDatasetTest, StreamedFileIsByteIdenticalToMaterializedFile) {
  const std::string streamed = TestPath(".streamed.ds");
  ASSERT_TRUE(GenerateWebGraphToFile(options_, streamed).ok());
  EXPECT_EQ(ReadAll(streamed), ReadAll(path_));
  std::remove(streamed.c_str());
}

TEST_F(StoreDatasetTest, StreamingLeavesNoTempFilesBehind) {
  const std::string streamed = TestPath(".streamed2.ds");
  ASSERT_TRUE(GenerateWebGraphToFile(options_, streamed).ok());
  EXPECT_FALSE(std::filesystem::exists(streamed + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(streamed + ".offsets.tmp"));
  std::remove(streamed.c_str());
}

TEST_F(StoreDatasetTest, OpenedGraphMatchesSource) {
  auto stored = StoredWebGraph::Open(path_);
  ASSERT_TRUE(stored.ok()) << stored.status();
  ExpectGraphsEqual((*stored)->graph(), graph_);
  EXPECT_EQ((*stored)->stats().total_urls, graph_.num_pages());
}

TEST_F(StoreDatasetTest, ReadInRamMatchesSource) {
  auto ram = StoredWebGraph::ReadInRam(path_);
  ASSERT_TRUE(ram.ok()) << ram.status();
  ExpectGraphsEqual(*ram, graph_);
}

TEST_F(StoreDatasetTest, NewViewOutlivesStoredWebGraph) {
  auto stored = StoredWebGraph::Open(path_);
  ASSERT_TRUE(stored.ok());
  WebGraph view = (*stored)->NewView();
  stored->reset();  // The view's keep-alive handle must hold the mapping.
  ExpectGraphsEqual(view, graph_);
}

TEST_F(StoreDatasetTest, MmapLinkDbMatchesInMemoryLinkDb) {
  auto stored = StoredWebGraph::Open(path_);
  ASSERT_TRUE(stored.ok());
  MmapLinkDb mapped(**stored);
  InMemoryLinkDb in_memory(&graph_);
  ASSERT_EQ(mapped.num_pages(), in_memory.num_pages());
  std::vector<PageId> a, b;
  for (PageId p = 0; p < graph_.num_pages(); ++p) {
    ASSERT_TRUE(mapped.GetOutlinks(p, &a).ok()) << p;
    ASSERT_TRUE(in_memory.GetOutlinks(p, &b).ok()) << p;
    ASSERT_EQ(a, b) << p;
  }
  EXPECT_EQ(mapped.GetOutlinks(static_cast<PageId>(graph_.num_pages()), &a)
                .code(),
            StatusCode::kNotFound);
}

TEST_F(StoreDatasetTest, MmapLinkDbExportsObsCounters) {
  auto stored = StoredWebGraph::Open(path_);
  ASSERT_TRUE(stored.ok());
  MmapLinkDb mapped(**stored);
  obs::MetricsRegistry registry;
  mapped.AttachObs(&registry);
  (*stored)->AttachObs(&registry);
  std::vector<PageId> out;
  ASSERT_TRUE(mapped.GetOutlinks(0, &out).ok());
  ASSERT_TRUE(mapped.GetOutlinks(1, &out).ok());
  EXPECT_EQ(registry.counter("store.outlink_reads")->value(), 2u);
  EXPECT_EQ(registry.gauge("store.bytes_mapped")->value(),
            (*stored)->mapped_bytes());
  EXPECT_EQ(mapped.outlink_reads(), 2u);
}

TEST_F(StoreDatasetTest, DiskLinkDbServesDatasetFiles) {
  DiskLinkDbOptions cache;
  cache.block_words = 64;  // Plenty of block seams in 4000 pages.
  cache.max_cached_blocks = 4;
  auto disk = DiskLinkDb::Open(path_, cache);
  ASSERT_TRUE(disk.ok()) << disk.status();
  std::vector<PageId> out;
  for (PageId p = 0; p < graph_.num_pages(); ++p) {
    ASSERT_TRUE((*disk)->GetOutlinks(p, &out).ok()) << p;
    const auto expected = graph_.outlinks(p);
    ASSERT_EQ(out.size(), expected.size()) << p;
    for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], expected[i]);
  }
}

TEST_F(StoreDatasetTest, TruncatedFileRejected) {
  const std::string blob = ReadAll(path_);
  const std::string bad = TestPath(".trunc.ds");
  // Any truncation point must fail the trailer's file-size check.
  for (size_t keep : {blob.size() / 2, blob.size() - 1, size_t{40}}) {
    std::ofstream(bad, std::ios::binary).write(blob.data(), keep);
    EXPECT_FALSE(StoredWebGraph::Open(bad).ok()) << keep;
    EXPECT_FALSE(StoredWebGraph::ReadInRam(bad).ok()) << keep;
  }
  std::remove(bad.c_str());
}

TEST_F(StoreDatasetTest, CorruptSectionPayloadRejected) {
  std::string blob = ReadAll(path_);
  // Flip a byte in the middle of the pages/targets region (well past
  // the 16-byte header, well before the directory).
  blob[blob.size() / 3] ^= '\x55';
  const std::string bad = TestPath(".flip.ds");
  std::ofstream(bad, std::ios::binary).write(blob.data(), blob.size());
  auto stored = StoredWebGraph::Open(bad);
  EXPECT_FALSE(stored.ok());
  EXPECT_FALSE(StoredWebGraph::ReadInRam(bad).ok());
  std::remove(bad.c_str());
}

TEST_F(StoreDatasetTest, MissingFileRejected) {
  const std::string missing = TestPath(".missing.ds");
  EXPECT_EQ(StoredWebGraph::Open(missing).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(StoredWebGraph::ReadInRam(missing).status().code(),
            StatusCode::kIoError);
}

TEST_F(StoreDatasetTest, BadMagicRejected) {
  const std::string bad = TestPath(".junk.ds");
  std::ofstream(bad, std::ios::binary) << "JUNKJUNKJUNKJUNKJUNKJUNKJUNK"
                                       << "JUNKJUNKJUNKJUNKJUNKJUNKJUNK";
  EXPECT_FALSE(StoredWebGraph::Open(bad).ok());
  std::remove(bad.c_str());
}

TEST(MemoryBudgetTest, ZeroBudgetIsUnbudgeted) {
  const MemoryBudgetPlan plan = PlanMemoryBudget(0);
  EXPECT_EQ(plan.budget_bytes, 0u);
  EXPECT_EQ(plan.frontier_urls, 0u);
  EXPECT_EQ(plan.linkdb_cache_blocks, 0u);
}

TEST(MemoryBudgetTest, SplitIsDeterministicAndMonotonic) {
  const MemoryBudgetPlan small = PlanMemoryBudget(64);
  const MemoryBudgetPlan large = PlanMemoryBudget(1024);
  EXPECT_EQ(small.budget_bytes, 64ull << 20);
  EXPECT_GT(small.frontier_urls, 0u);
  EXPECT_GT(small.linkdb_cache_blocks, 0u);
  EXPECT_GT(small.link_cache_block_words, 0u);
  EXPECT_GE(large.frontier_urls, small.frontier_urls);
  EXPECT_GE(large.linkdb_cache_blocks, small.linkdb_cache_blocks);
  // Same input, same plan — it sits in snapshot fingerprints.
  const MemoryBudgetPlan again = PlanMemoryBudget(64);
  EXPECT_EQ(again.frontier_urls, small.frontier_urls);
  EXPECT_EQ(again.linkdb_cache_blocks, small.linkdb_cache_blocks);
}

}  // namespace
}  // namespace lswc::store
