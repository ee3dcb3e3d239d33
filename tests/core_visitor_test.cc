#include "core/visitor.h"

#include <gtest/gtest.h>

#include "charset/codec.h"
#include "html/link_extractor.h"
#include "tests/test_util.h"
#include "util/series.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

using ::lswc::testing::MakeGraph;
using ::lswc::testing::PageSpec;

constexpr Language kThai = Language::kThai;

class VisitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateWebGraph(ThaiLikeOptions(2000));
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }
  WebGraph graph_;
};

TEST_F(VisitorTest, TraceModeServesLinkDbLinks) {
  InMemoryLinkDb db(&graph_);
  VirtualWebSpace web(&graph_, &db, RenderMode::kNone);
  MetaTagClassifier classifier(kThai);
  Visitor visitor(&web, &classifier);
  VisitResult result;
  PageId ok_page = 0;
  while (!graph_.page(ok_page).ok()) ++ok_page;
  ASSERT_TRUE(visitor.Visit(ok_page, &result).ok());
  const auto expected = graph_.outlinks(ok_page);
  ASSERT_EQ(result.links.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.links[i], expected[i]);
  }
  EXPECT_EQ(visitor.visit_count(), 1u);
}

TEST_F(VisitorTest, ParseModeResolvesEveryRenderedAnchor) {
  InMemoryLinkDb db(&graph_);
  VirtualWebSpace web(&graph_, &db, RenderMode::kFull);
  MetaTagClassifier classifier(kThai);
  Visitor visitor(&web, &classifier, /*parse_html=*/true);
  VisitResult result;
  int checked = 0;
  for (PageId p = 0; p < graph_.num_pages() && checked < 100; ++p) {
    if (!graph_.page(p).ok()) continue;
    ++checked;
    ASSERT_TRUE(visitor.Visit(p, &result).ok()) << p;
    const auto expected = graph_.outlinks(p);
    ASSERT_EQ(result.links.size(), expected.size()) << "page " << p;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.links[i], expected[i]) << "page " << p;
    }
  }
  EXPECT_EQ(visitor.unresolved_links(), 0u);
}

TEST_F(VisitorTest, ParseModeWithoutFullRenderFails) {
  InMemoryLinkDb db(&graph_);
  VirtualWebSpace web(&graph_, &db, RenderMode::kHead);
  MetaTagClassifier classifier(kThai);
  Visitor visitor(&web, &classifier, /*parse_html=*/true);
  VisitResult result;
  PageId ok_page = 0;
  while (!graph_.page(ok_page).ok()) ++ok_page;
  EXPECT_EQ(visitor.Visit(ok_page, &result).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(VisitorTest, OutOfRangePageIsNotFound) {
  InMemoryLinkDb db(&graph_);
  VirtualWebSpace web(&graph_, &db, RenderMode::kNone);
  MetaTagClassifier classifier(kThai);
  Visitor visitor(&web, &classifier);
  VisitResult result;
  EXPECT_EQ(visitor.Visit(static_cast<PageId>(graph_.num_pages()), &result)
                .code(),
            StatusCode::kNotFound);
}

TEST(VisitorSmallGraphTest, NonOkPageYieldsNoLinksAndNoJudgment) {
  const WebGraph g = MakeGraph(
      {PageSpec{0, kThai, /*status=*/404}, PageSpec{0, kThai}}, {{1, 0}},
      {1});
  InMemoryLinkDb db(&g);
  VirtualWebSpace web(&g, &db, RenderMode::kNone);
  MetaTagClassifier classifier(kThai);
  Visitor visitor(&web, &classifier);
  VisitResult result;
  ASSERT_TRUE(visitor.Visit(0, &result).ok());
  EXPECT_FALSE(result.response.ok());
  EXPECT_TRUE(result.links.empty());
  EXPECT_FALSE(result.judgment.relevant);
}

// Reports one fixed encoding for every page, relevant or not.
class FixedEncodingClassifier final : public Classifier {
 public:
  explicit FixedEncodingClassifier(Encoding encoding) : encoding_(encoding) {}
  RelevanceJudgment Judge(const FetchResponse& response) override {
    (void)response;
    RelevanceJudgment judgment;
    judgment.encoding = encoding_;
    return judgment;
  }
  Language target_language() const override { return Language::kJapanese; }
  std::string name() const override { return "fixed"; }

 private:
  Encoding encoding_;
};

// The parse path as it was when every believed encoding decoded: decode
// the body with the classifier's encoding (the declared charset when it
// has none), parse the UTF-8 on success and the raw bytes on failure.
std::vector<PageId> DecodingPathLinks(const WebGraph& graph,
                                      const VisitResult& result,
                                      uint64_t* unresolved) {
  Encoding believed = result.judgment.encoding;
  if (believed == Encoding::kUnknown) believed = result.response.meta_charset;
  std::string html = result.response.body;
  if (believed != Encoding::kUnknown) {
    auto text = DecodeText(believed, result.response.body);
    if (text.ok()) html = EncodeUtf8(*text);
  }
  LinkExtractorOptions options;
  options.collect_anchor_text = false;
  std::vector<PageId> links;
  for (const ExtractedLink& link :
       ExtractLinks(graph.UrlOf(result.response.page), html, options)) {
    PageId child;
    if (graph.ResolveUrl(link.url, &child)) {
      links.push_back(child);
    } else {
      ++*unresolved;
    }
  }
  return links;
}

// Only an ISO-2022-JP belief decodes before extraction; every other
// belief parses the raw bytes. Whatever the belief and the page's true
// encoding, the links must be those of the decoding path.
void ExpectRawBytesFindDecodedLinks(const WebGraph& graph) {
  InMemoryLinkDb db(&graph);
  VirtualWebSpace web(&graph, &db, RenderMode::kFull);
  for (int e = 0; e < static_cast<int>(Encoding::kNumEncodings); ++e) {
    const Encoding believed = static_cast<Encoding>(e);
    FixedEncodingClassifier classifier(believed);
    Visitor visitor(&web, &classifier, /*parse_html=*/true);
    VisitResult result;
    uint64_t pages = 0;
    uint64_t unresolved = 0;
    for (PageId p = 0; p < graph.num_pages(); ++p) {
      if (!graph.page(p).ok()) continue;
      ++pages;
      ASSERT_TRUE(visitor.Visit(p, &result).ok()) << p;
      EXPECT_EQ(result.links, DecodingPathLinks(graph, result, &unresolved))
          << "page " << p << " believed " << EncodingName(believed)
          << " true " << EncodingName(graph.page(p).true_encoding);
    }
    EXPECT_GT(pages, 1000u);
    EXPECT_EQ(visitor.unresolved_links(), unresolved)
        << EncodingName(believed);
  }
}

TEST(VisitorParseModeTest, RawBytesFindDecodedLinksOnJapaneseGraph) {
  auto graph = GenerateWebGraph(JapaneseLikeOptions(2000));
  ASSERT_TRUE(graph.ok());
  ExpectRawBytesFindDecodedLinks(*graph);
}

TEST(VisitorParseModeTest, RawBytesFindDecodedLinksOnThaiGraph) {
  auto graph = GenerateWebGraph(ThaiLikeOptions(2000));
  ASSERT_TRUE(graph.ok());
  ExpectRawBytesFindDecodedLinks(*graph);
}

TEST(MergeSeriesTest, ResamplesWithHeldFinalValues) {
  Series a("x", {"v"});
  a.AddRow(10, {1});
  a.AddRow(20, {2});
  Series b("x", {"v"});
  b.AddRow(10, {5});
  b.AddRow(40, {9});
  const Series merged =
      MergeSeriesColumns({{"a", &a}, {"b", &b}}, 0, "x", /*points=*/4);
  ASSERT_EQ(merged.num_rows(), 4u);
  EXPECT_EQ(merged.x(3), 40);
  // a ended at x=20 and holds its last value through the tail.
  EXPECT_EQ(merged.y(3, 0), 2);
  EXPECT_EQ(merged.y(3, 1), 9);
  // At x=10 both have their first sample.
  EXPECT_EQ(merged.y(0, 0), 1);
  EXPECT_EQ(merged.y(0, 1), 5);
}

}  // namespace
}  // namespace lswc
