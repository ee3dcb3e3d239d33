#include "url/url_table.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace lswc {
namespace {

TEST(UrlTableTest, InternAssignsDenseIds) {
  UrlTable t;
  EXPECT_EQ(t.Intern("http://a.test/"), 0u);
  EXPECT_EQ(t.Intern("http://b.test/"), 1u);
  EXPECT_EQ(t.Intern("http://c.test/"), 2u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(UrlTableTest, InternIsIdempotent) {
  UrlTable t;
  const UrlId id = t.Intern("http://a.test/x");
  EXPECT_EQ(t.Intern("http://a.test/x"), id);
  EXPECT_EQ(t.size(), 1u);
}

TEST(UrlTableTest, GetReturnsExactBytes) {
  UrlTable t;
  const UrlId id = t.Intern("http://a.test/p1.html");
  EXPECT_EQ(t.Get(id), "http://a.test/p1.html");
}

TEST(UrlTableTest, FindMissing) {
  UrlTable t;
  t.Intern("http://a.test/");
  EXPECT_EQ(t.Find("http://b.test/"), kInvalidUrlId);
  EXPECT_EQ(t.Find("http://a.test/"), 0u);
}

TEST(UrlTableTest, EmptyStringIsInternable) {
  UrlTable t;
  const UrlId id = t.Intern("");
  EXPECT_EQ(t.Get(id), "");
  EXPECT_EQ(t.Find(""), id);
}

TEST(UrlTableTest, SurvivesRehashWithStableViews) {
  UrlTable t;
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 50000; ++i) {
    originals.push_back(StringPrintf("http://h%d.test/p%d.html", i % 97, i));
  }
  for (const auto& url : originals) views.push_back(t.Get(t.Intern(url)));
  ASSERT_EQ(t.size(), originals.size());
  // All views must still read back correctly after every rehash/growth.
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
    EXPECT_EQ(t.Find(originals[i]), static_cast<UrlId>(i));
  }
  EXPECT_GT(t.arena_bytes(), 0u);
}

TEST(UrlTableTest, CollidingHashesStillDistinct) {
  // Force many near-identical keys through the same table; correctness
  // must not depend on hash spread.
  UrlTable t;
  for (int i = 0; i < 1000; ++i) {
    std::string key(1, static_cast<char>('a' + i % 26));
    key += std::to_string(i);
    t.Intern(key);
  }
  EXPECT_EQ(t.size(), 1000u);
}

TEST(HashBytesTest, FnvKnownValues) {
  // FNV-1a 64-bit of empty input is the offset basis.
  EXPECT_EQ(HashBytes(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(HashBytes("a"), HashBytes("b"));
}

}  // namespace
}  // namespace lswc
