#include "webgraph/content_gen.h"

#include <gtest/gtest.h>

#include "charset/codec.h"
#include "charset/detector.h"
#include "html/link_extractor.h"
#include "html/meta_charset.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

class ContentGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateWebGraph(ThaiLikeOptions(5000));
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }
  WebGraph graph_;
};

TEST_F(ContentGenTest, RenderingIsDeterministic) {
  for (PageId p = 0; p < 50; ++p) {
    auto a = RenderPageBody(graph_, p);
    auto b = RenderPageBody(graph_, p);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "page " << p;
  }
}

TEST_F(ContentGenTest, BodyDecodesInTrueEncoding) {
  int checked = 0;
  for (PageId p = 0; p < graph_.num_pages() && checked < 200; ++p) {
    if (!graph_.page(p).ok()) continue;
    ++checked;
    auto body = RenderPageBody(graph_, p);
    ASSERT_TRUE(body.ok()) << "page " << p;
    EXPECT_TRUE(DecodeText(graph_.page(p).true_encoding, *body).ok())
        << "page " << p << " enc "
        << EncodingName(graph_.page(p).true_encoding);
  }
  EXPECT_EQ(checked, 200);
}

TEST_F(ContentGenTest, MetaDeclarationMatchesRecord) {
  int with_meta = 0, without_meta = 0;
  for (PageId p = 0; p < graph_.num_pages() &&
                     (with_meta < 50 || without_meta < 10);
       ++p) {
    const PageRecord& rec = graph_.page(p);
    if (!rec.ok()) continue;
    auto body = RenderPageBody(graph_, p);
    ASSERT_TRUE(body.ok());
    const auto declared = ExtractMetaCharset(*body);
    if (rec.meta_charset == Encoding::kUnknown) {
      EXPECT_FALSE(declared.has_value()) << "page " << p;
      ++without_meta;
    } else {
      ASSERT_TRUE(declared.has_value()) << "page " << p;
      EXPECT_EQ(EncodingFromName(*declared), rec.meta_charset)
          << "page " << p;
      ++with_meta;
    }
  }
  EXPECT_GE(with_meta, 50);
  EXPECT_GE(without_meta, 10);
}

TEST_F(ContentGenTest, AnchorsCoverAllOutlinks) {
  int checked = 0;
  for (PageId p = 0; p < graph_.num_pages() && checked < 50; ++p) {
    const PageRecord& rec = graph_.page(p);
    if (!rec.ok() || graph_.outlinks(p).empty()) continue;
    // Byte-level extraction is only guaranteed for ASCII-compatible
    // encodings; ISO-2022-JP goes through the decode path (see the
    // visitor integration test).
    if (rec.true_encoding == Encoding::kIso2022Jp) continue;
    ++checked;
    auto body = RenderPageBody(graph_, p);
    ASSERT_TRUE(body.ok());
    LinkExtractorOptions options;
    options.collect_anchor_text = false;
    const auto links = ExtractLinks(graph_.UrlOf(p), *body, options);
    ASSERT_EQ(links.size(), graph_.outlinks(p).size()) << "page " << p;
    for (size_t i = 0; i < links.size(); ++i) {
      EXPECT_EQ(links[i].url, graph_.UrlOf(graph_.outlinks(p)[i]));
    }
  }
  EXPECT_EQ(checked, 50);
}

TEST_F(ContentGenTest, DetectorAgreesWithTrueEncodingOnFullBodies) {
  int checked = 0, agreed = 0;
  for (PageId p = 0; p < graph_.num_pages() && checked < 300; ++p) {
    const PageRecord& rec = graph_.page(p);
    if (!rec.ok()) continue;
    // ASCII bodies of "other" pages may also be valid UTF-8 etc.; only
    // judge the language-bearing encodings.
    if (LanguageOfEncoding(rec.true_encoding) != Language::kThai) continue;
    ++checked;
    auto body = RenderPageBody(graph_, p);
    ASSERT_TRUE(body.ok());
    const DetectionResult r = DetectEncoding(*body);
    if (LanguageOfEncoding(r.encoding) == Language::kThai) ++agreed;
  }
  ASSERT_GT(checked, 100);
  EXPECT_GT(agreed, checked * 9 / 10);
}

TEST_F(ContentGenTest, HeadIsPrefixLike) {
  for (PageId p = 0; p < 20; ++p) {
    if (!graph_.page(p).ok()) continue;
    auto head = RenderPageHead(graph_, p);
    ASSERT_TRUE(head.ok());
    EXPECT_NE(head->find("<head>"), std::string::npos);
    EXPECT_LT(head->size(), 1200u);
  }
}

// FNV-1a over every page's rendered body and head, each followed by a
// 0xFF byte (never present in a rendered page) so that documents cannot
// run into each other. Pins the renderer byte for byte: the detector
// results of Fig 4 and Table 1 are functions of these bytes.
uint64_t RenderingHash(const WebGraph& graph) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xFF;
    h *= 0x100000001b3ULL;
  };
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    auto body = RenderPageBody(graph, p);
    auto head = RenderPageHead(graph, p);
    EXPECT_TRUE(body.ok()) << "page " << p;
    EXPECT_TRUE(head.ok()) << "page " << p;
    if (!body.ok() || !head.ok()) return 0;
    mix(*body);
    mix(*head);
  }
  return h;
}

TEST(ContentGenPinTest, JapaneseRenderingIsPinned) {
  auto graph = GenerateWebGraph(JapaneseLikeOptions(2000));
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(RenderingHash(*graph), 0x6183b372f33e8356ULL);
}

TEST(ContentGenPinTest, ThaiRenderingIsPinned) {
  auto graph = GenerateWebGraph(ThaiLikeOptions(2000));
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(RenderingHash(*graph), 0x960e092172c43233ULL);
}

TEST_F(ContentGenTest, NonOkPagesRenderErrorBody) {
  for (PageId p = 0; p < graph_.num_pages(); ++p) {
    if (graph_.page(p).ok()) continue;
    auto body = RenderPageBody(graph_, p);
    ASSERT_TRUE(body.ok());
    EXPECT_NE(body->find("HTTP"), std::string::npos);
    break;
  }
}

}  // namespace
}  // namespace lswc
