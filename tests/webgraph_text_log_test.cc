#include "webgraph/text_log.h"

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

constexpr char kSample[] = R"(!lswc-text-log 1
# a hand-written tunneling fixture
target Thai
generator-seed 7

host 0 Thai
page 200 Thai TIS-620 TIS-620 350
page 200 other US-ASCII - 120       # undeclared charset
page 404 Thai - - 0
host 1 other
page 200 Thai utf-8 utf-8 200       # Thai authored in UTF-8

links 0 1 2
links 1 3
seed 0
)";

TEST(TextLogTest, ParsesHandWrittenSample) {
  std::istringstream in(kSample);
  auto g = ParseTextLog(in);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_pages(), 4u);
  EXPECT_EQ(g->num_hosts(), 2u);
  EXPECT_EQ(g->num_links(), 3u);
  EXPECT_EQ(g->target_language(), Language::kThai);
  EXPECT_EQ(g->generator_seed(), 7u);
  EXPECT_EQ(g->page(0).true_encoding, Encoding::kTis620);
  EXPECT_EQ(g->page(1).meta_charset, Encoding::kUnknown);
  EXPECT_EQ(g->page(2).http_status, 404);
  EXPECT_EQ(g->page(3).host, 1u);
  EXPECT_EQ(g->outlinks(0).size(), 2u);
  EXPECT_EQ(g->seeds().size(), 1u);
}

TEST(TextLogTest, ParsedFixtureDrivesASimulation) {
  std::istringstream in(kSample);
  auto g = ParseTextLog(in);
  ASSERT_TRUE(g.ok());
  MetaTagClassifier classifier(Language::kThai);
  auto r = RunSimulation(*g, &classifier, HardFocusedStrategy());
  ASSERT_TRUE(r.ok());
  // 0 (Thai, declared) expands; 1 (judged irrelevant) and 2 (dead) do
  // not, so page 3 is never found.
  EXPECT_EQ(r->summary.pages_crawled, 3u);
}

TEST(TextLogTest, RoundTripsGeneratedGraph) {
  auto g = GenerateWebGraph(ThaiLikeOptions(3000));
  ASSERT_TRUE(g.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteTextLog(*g, out).ok());
  std::istringstream in(out.str());
  auto back = ParseTextLog(in);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_pages(), g->num_pages());
  ASSERT_EQ(back->num_links(), g->num_links());
  EXPECT_TRUE(std::ranges::equal(back->seeds(), g->seeds()));
  for (PageId p = 0; p < g->num_pages(); ++p) {
    ASSERT_EQ(back->page(p).http_status, g->page(p).http_status) << p;
    ASSERT_EQ(back->page(p).language, g->page(p).language) << p;
    ASSERT_EQ(back->page(p).true_encoding, g->page(p).true_encoding) << p;
    ASSERT_EQ(back->page(p).meta_charset, g->page(p).meta_charset) << p;
    ASSERT_EQ(back->page(p).host, g->page(p).host) << p;
    const auto la = g->outlinks(p);
    const auto lb = back->outlinks(p);
    ASSERT_EQ(la.size(), lb.size()) << p;
    for (size_t i = 0; i < la.size(); ++i) ASSERT_EQ(la[i], lb[i]);
  }
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect_in_message;
};

// Names the case in test listings (and so in the CTest test name);
// without it gtest prints the raw bytes, i.e. the pointer values.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class TextLogErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(TextLogErrorTest, RejectsWithLineDiagnostics) {
  std::istringstream in(GetParam().text);
  auto g = ParseTextLog(in);
  ASSERT_FALSE(g.ok()) << GetParam().name;
  EXPECT_NE(g.status().message().find(GetParam().expect_in_message),
            std::string::npos)
      << GetParam().name << ": " << g.status();
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, TextLogErrorTest,
    ::testing::Values(
        BadCase{"no_header", "target Thai\n", "header"},
        BadCase{"bad_verb",
                "!lswc-text-log 1\ntarget Thai\nfrobnicate 1\n",
                "unknown directive"},
        BadCase{"no_target",
                "!lswc-text-log 1\nhost 0 Thai\npage 200 Thai - - 1\n",
                "target"},
        BadCase{"page_before_host",
                "!lswc-text-log 1\ntarget Thai\npage 200 Thai - - 1\n",
                "before any host"},
        BadCase{"bad_encoding",
                "!lswc-text-log 1\ntarget Thai\nhost 0 Thai\n"
                "page 200 Thai KLINGON - 1\n",
                "unknown true encoding"},
        BadCase{"link_out_of_range",
                "!lswc-text-log 1\ntarget Thai\nhost 0 Thai\n"
                "page 200 Thai - - 1\nlinks 0 5\n",
                "out of range"},
        BadCase{"links_not_ascending",
                "!lswc-text-log 1\ntarget Thai\nhost 0 Thai\n"
                "page 200 Thai - - 1\npage 200 Thai - - 1\n"
                "links 1 0\nlinks 0 1\n",
                "ascending"},
        BadCase{"seed_out_of_range",
                "!lswc-text-log 1\ntarget Thai\nhost 0 Thai\n"
                "page 200 Thai - - 1\nseed 9\n",
                "out of range"},
        BadCase{"host_ids_out_of_order",
                "!lswc-text-log 1\ntarget Thai\nhost 1 Thai\n",
                "order"},
        BadCase{"target_other",
                "!lswc-text-log 1\ntarget other\n",
                "Japanese or Thai"}));

TEST(TextLogTest, FileRoundTrip) {
  auto g = GenerateWebGraph(ThaiLikeOptions(500));
  ASSERT_TRUE(g.ok());
  const std::string path = ::testing::TempDir() + "/lswc_text_log.txt";
  ASSERT_TRUE(WriteTextLogFile(*g, path).ok());
  auto back = ReadTextLogFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_pages(), g->num_pages());
  std::remove(path.c_str());
}

TEST(TextLogTest, MissingFileFails) {
  EXPECT_EQ(ReadTextLogFile("/nonexistent/x.txt").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace lswc
