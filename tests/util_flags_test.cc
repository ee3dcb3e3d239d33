#include "util/flags.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lswc {
namespace {

/// Parses `args` and returns the error message ("" on success).
std::string ParseError(FlagTable* table, std::vector<std::string_view> args,
                       std::vector<std::string>* positional = nullptr) {
  const Status status = table->Parse(args, positional);
  if (status.ok()) return "";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  return status.message();
}

TEST(FlagTableTest, IntWritesItsField) {
  FlagTable table("[options]");
  uint64_t n = 7;
  table.Int("--n", "N", "a count", &n);
  EXPECT_EQ(ParseError(&table, {"--n=42"}), "");
  EXPECT_EQ(n, 42u);
  EXPECT_TRUE(table.given("--n"));
}

TEST(FlagTableTest, IntBoundsComeFromTheFieldType) {
  FlagTable table("[options]");
  uint32_t u32 = 0;
  uint8_t u8 = 0;
  int i = 0;
  table.Int("--u32", "N", "", &u32);
  table.Int("--u8", "N", "", &u8);
  table.Int("--int", "N", "", &i);
  EXPECT_EQ(ParseError(&table, {"--u32=4294967295", "--u8=255",
                                "--int=2147483647"}),
            "");
  EXPECT_EQ(u32, UINT32_MAX);
  EXPECT_EQ(u8, 255);
  EXPECT_EQ(i, INT32_MAX);
  // One past the type's maximum is refused, never wrapped.
  EXPECT_EQ(ParseError(&table, {"--u32=4294967296"}),
            "--u32: 4294967296 is out of range [0, 4294967295]");
  EXPECT_EQ(ParseError(&table, {"--u8=256"}),
            "--u8: 256 is out of range [0, 255]");
  EXPECT_EQ(ParseError(&table, {"--int=2147483648"}),
            "--int: 2147483648 is out of range [0, 2147483647]");
  EXPECT_EQ(u32, UINT32_MAX);
  EXPECT_EQ(ParseError(&table, {"--u32=18446744073709551616"}),
            "--u32: '18446744073709551616' is not a non-negative integer");
}

TEST(FlagTableTest, IntHonoursTheEntryBounds) {
  FlagTable table("[options]");
  unsigned jobs = 0;
  table.Int("--jobs", "N", "", &jobs, 1, 1024);
  EXPECT_EQ(ParseError(&table, {"--jobs=0"}),
            "--jobs: 0 is out of range [1, 1024]");
  EXPECT_EQ(ParseError(&table, {"--jobs=1025"}),
            "--jobs: 1025 is out of range [1, 1024]");
  EXPECT_EQ(ParseError(&table, {"--jobs=-1"}),
            "--jobs: '-1' is not a non-negative integer");
  EXPECT_EQ(ParseError(&table, {"--jobs=banana"}),
            "--jobs: 'banana' is not a non-negative integer");
  EXPECT_EQ(ParseError(&table, {"--jobs="}),
            "--jobs: '' is not a non-negative integer");
  EXPECT_EQ(ParseError(&table, {"--jobs=1024"}), "");
  EXPECT_EQ(jobs, 1024u);
}

TEST(FlagTableTest, DoubleMustBeFinite) {
  FlagTable table("[options]");
  double x = 1.0;
  table.Double("--x", "X", "", &x);
  EXPECT_EQ(ParseError(&table, {"--x=-2.5"}), "");
  EXPECT_EQ(x, -2.5);
  for (const char* bad : {"nan", "inf", "-inf", "1e400"}) {
    const std::string arg = std::string("--x=") + bad;
    EXPECT_EQ(ParseError(&table, {arg}),
              "--x: '" + std::string(bad) + "' is not finite");
  }
  EXPECT_EQ(ParseError(&table, {"--x=1.0s"}), "--x: '1.0s' is not a number");
  EXPECT_EQ(x, -2.5);
}

TEST(FlagTableTest, DoubleHonoursItsMinimum) {
  FlagTable table("[options]");
  double at_least_zero = 0.0;
  double above_zero = 1.0;
  table.Double("--a", "X", "", &at_least_zero, 0.0);
  table.Double("--b", "X", "", &above_zero, 0.0, /*exclusive=*/true);
  EXPECT_EQ(ParseError(&table, {"--a=0"}), "");
  EXPECT_EQ(ParseError(&table, {"--a=-1"}), "--a: -1 must be >= 0");
  EXPECT_EQ(ParseError(&table, {"--b=0"}), "--b: 0 must be > 0");
  EXPECT_EQ(ParseError(&table, {"--b=0.25"}), "");
  EXPECT_EQ(above_zero, 0.25);
}

TEST(FlagTableTest, StringMustBeNonEmpty) {
  FlagTable table("[options]");
  std::string s = "default";
  table.String("--s", "S", "", &s);
  EXPECT_EQ(ParseError(&table, {"--s="}), "--s: needs a non-empty value");
  EXPECT_EQ(s, "default");
  EXPECT_EQ(ParseError(&table, {"--s=a=b"}), "");
  EXPECT_EQ(s, "a=b");
}

TEST(FlagTableTest, ChoiceMustBeOneOfItsChoices) {
  FlagTable table("[options]");
  std::string store = "mmap";
  table.Choice("--store", {"mmap", "ram"}, "", &store);
  EXPECT_EQ(ParseError(&table, {"--store=disk"}),
            "--store: 'disk' is not one of mmap|ram");
  EXPECT_EQ(ParseError(&table, {"--store=ram"}), "");
  EXPECT_EQ(store, "ram");
}

TEST(FlagTableTest, SwitchTakesNoValue) {
  FlagTable table("[options]");
  bool on = false;
  table.Switch("--on", "", &on);
  EXPECT_EQ(ParseError(&table, {"--on=1"}), "--on: takes no value");
  EXPECT_FALSE(on);
  EXPECT_EQ(ParseError(&table, {"--on"}), "");
  EXPECT_TRUE(on);
}

TEST(FlagTableTest, ValuedFlagNeedsAValue) {
  FlagTable table("[options]");
  uint64_t n = 0;
  table.Int("--n", "N", "", &n);
  EXPECT_EQ(ParseError(&table, {"--n"}), "--n: needs a value: --n=N");
}

TEST(FlagTableTest, CustomEntryReportsItsSetterError) {
  FlagTable table("[options]");
  int conns = 0;
  double interval = 0.0;
  table.Custom("--pair", "A,B", "", [&](std::string_view value) {
    const size_t comma = value.find(',');
    if (comma == std::string_view::npos) return std::string("expected A,B");
    std::string error = ParseFlagInt(value.substr(0, comma), &conns, 1);
    if (error.empty()) {
      error = ParseFlagDouble(value.substr(comma + 1), &interval, 0.0);
    }
    return error;
  });
  EXPECT_EQ(ParseError(&table, {"--pair=16"}), "--pair: expected A,B");
  EXPECT_EQ(ParseError(&table, {"--pair=4294967297,1.0"}),
            "--pair: 4294967297 is out of range [1, 2147483647]");
  EXPECT_EQ(ParseError(&table, {"--pair=16,inf"}),
            "--pair: 'inf' is not finite");
  EXPECT_EQ(ParseError(&table, {"--pair=16,1.5"}), "");
  EXPECT_EQ(conns, 16);
  EXPECT_EQ(interval, 1.5);
}

TEST(FlagTableTest, UnknownFlagsAreRefused) {
  FlagTable table("[options]");
  uint64_t n = 0;
  table.Int("--n", "N", "", &n);
  EXPECT_EQ(ParseError(&table, {"--bogus=1"}), "--bogus: unknown flag");
  EXPECT_EQ(ParseError(&table, {"--bogus"}), "--bogus: unknown flag");
  // No abbreviations and no single-dash spellings.
  EXPECT_EQ(ParseError(&table, {"--nn=1"}), "--nn: unknown flag");
  EXPECT_EQ(ParseError(&table, {"-n=1"}), "-n: unknown flag");
}

TEST(FlagTableTest, LastOccurrenceWins) {
  FlagTable table("[options]");
  uint64_t n = 0;
  table.Int("--n", "N", "", &n);
  EXPECT_EQ(ParseError(&table, {"--n=1", "--n=2", "--n=3"}), "");
  EXPECT_EQ(n, 3u);
}

TEST(FlagTableTest, PositionalArgumentsOnlyWhereAccepted) {
  FlagTable table("[options] FILE");
  bool on = false;
  table.Switch("--on", "", &on);
  EXPECT_EQ(ParseError(&table, {"file"}), "file: unexpected argument");
  std::vector<std::string> positional;
  EXPECT_EQ(ParseError(&table, {"a", "--on", "b"}, &positional), "");
  EXPECT_EQ(positional, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(on);
}

TEST(FlagTableTest, ChecksRunAfterEveryFlagInOrder) {
  FlagTable table("[options]");
  uint64_t every = 0;
  std::string dir;
  table.Int("--every", "N", "", &every, 1);
  table.String("--dir", "DIR", "", &dir);
  table.AddCheck([&]() -> std::string {
    return every != 0 && dir.empty() ? "--every requires --dir" : "";
  });
  table.AddCheck([]() -> std::string { return "second check"; });
  EXPECT_EQ(ParseError(&table, {"--every=5"}), "--every requires --dir");
  // The flag after --every still counts: checks see the whole line.
  EXPECT_EQ(ParseError(&table, {"--every=5", "--dir=x"}), "second check");
}

TEST(FlagTableTest, UsageListsEveryDeclaredFlag) {
  FlagTable table("[options] ENDPOINT");
  uint32_t n = 0;
  double x = 0;
  std::string s;
  std::string c = "a";
  bool on = false;
  table.Int("--count", "N", "how many", &n);
  table.Double("--ratio", "X", "how much", &x);
  table.String("--name", "S", "what", &s);
  table.Choice("--mode", {"a", "b"}, "which", &c);
  table.Switch("--verbose", "say more", &on);
  table.Custom("--a-rather-long-flag-name", "VALUE,VALUE", "wraps",
               [](std::string_view) { return std::string(); });
  const std::string usage = table.Usage("prog");
  EXPECT_EQ(usage.rfind("usage: prog [options] ENDPOINT\n", 0), 0u) << usage;
  for (const char* line :
       {"  --count=N                    how many\n",
        "  --ratio=X                    how much\n",
        "  --name=S                     what\n",
        "  --mode=a|b                   which\n",
        "  --verbose                    say more\n",
        "  --a-rather-long-flag-name=VALUE,VALUE\n"
        "                               wraps\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << usage;
  }
}

TEST(FlagTableDeathTest, ParseOrExitPrintsTheReasonAndUsage) {
  FlagTable table("[options]");
  uint32_t n = 0;
  table.Int("--n", "N", "a count", &n, 1);
  char arg0[] = "prog";
  char arg1[] = "--n=0";
  char* argv[] = {arg0, arg1};
  EXPECT_EXIT(table.ParseOrExit(2, argv), ::testing::ExitedWithCode(2),
              "--n: 0 is out of range \\[1, 4294967295\\]\nusage: prog "
              "\\[options\\]\n  --n=N");
}

}  // namespace
}  // namespace lswc
