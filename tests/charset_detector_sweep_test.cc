// Parameterized accuracy sweeps of the composite detector across
// document lengths and encodings: pins the operating envelope the
// crawler relies on (the fig4 bench detects on ~200-1000 byte heads).

#include <gtest/gtest.h>

#include "charset/codec.h"
#include "charset/detector.h"
#include "charset/text_gen.h"
#include "util/random.h"

namespace lswc {
namespace {

struct SweepCase {
  Language lang;
  Encoding encoding;
  int chars;
  // Minimum acceptable language-identification accuracy (out of 1).
  double min_accuracy;
};

// Names the case in test listings (and so in the CTest test name);
// without it gtest prints the raw bytes, uninitialised padding included.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << EncodingName(c.encoding) << ' ' << c.chars << " chars";
}

class DetectorSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DetectorSweepTest, LanguageAccuracyAtLength) {
  const SweepCase& c = GetParam();
  Rng rng(static_cast<uint64_t>(c.chars) * 131 +
          static_cast<uint64_t>(c.encoding));
  constexpr int kDocs = 100;
  int correct = 0;
  for (int i = 0; i < kDocs; ++i) {
    const std::u32string text = GenerateText(c.lang, c.chars, &rng);
    auto bytes = EncodeText(c.encoding, text);
    ASSERT_TRUE(bytes.ok());
    const DetectionResult r = DetectEncoding(*bytes);
    if (LanguageOfEncoding(r.encoding) == c.lang) ++correct;
  }
  EXPECT_GE(correct, static_cast<int>(c.min_accuracy * kDocs))
      << EncodingName(c.encoding) << " @ " << c.chars << " chars: "
      << correct << "/" << kDocs;
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, DetectorSweepTest,
    ::testing::Values(
        // Tiny titles: escape-based ISO-2022-JP is conclusive even at 8
        // chars; statistical probers need a little more.
        SweepCase{Language::kJapanese, Encoding::kIso2022Jp, 8, 1.00},
        SweepCase{Language::kJapanese, Encoding::kEucJp, 16, 0.85},
        SweepCase{Language::kJapanese, Encoding::kShiftJis, 16, 0.80},
        SweepCase{Language::kThai, Encoding::kTis620, 16, 0.90},
        // Head-sized documents: the fig4 operating point.
        SweepCase{Language::kJapanese, Encoding::kEucJp, 64, 0.97},
        SweepCase{Language::kJapanese, Encoding::kShiftJis, 64, 0.95},
        SweepCase{Language::kThai, Encoding::kTis620, 64, 0.98},
        // Full bodies: effectively perfect.
        SweepCase{Language::kJapanese, Encoding::kEucJp, 512, 1.00},
        SweepCase{Language::kJapanese, Encoding::kShiftJis, 512, 1.00},
        SweepCase{Language::kJapanese, Encoding::kIso2022Jp, 512, 1.00},
        SweepCase{Language::kThai, Encoding::kTis620, 512, 1.00},
        SweepCase{Language::kThai, Encoding::kWindows874, 512, 1.00}));

// Cross-confusion sweep: text of language A must never be attributed to
// language B (wrong-language errors are worse for a crawler than
// unknowns — they poison hard-focused link expansion).
struct ConfusionCase {
  Language lang;
  Encoding encoding;
  int chars;
};

void PrintTo(const ConfusionCase& c, std::ostream* os) {
  *os << EncodingName(c.encoding) << ' ' << c.chars << " chars";
}

class DetectorConfusionTest
    : public ::testing::TestWithParam<ConfusionCase> {};

TEST_P(DetectorConfusionTest, NeverAttributesToTheOtherLanguage) {
  const ConfusionCase& c = GetParam();
  const Language other =
      c.lang == Language::kThai ? Language::kJapanese : Language::kThai;
  Rng rng(static_cast<uint64_t>(c.chars) * 733 +
          static_cast<uint64_t>(c.encoding));
  for (int i = 0; i < 150; ++i) {
    const std::u32string text = GenerateText(c.lang, c.chars, &rng);
    auto bytes = EncodeText(c.encoding, text);
    ASSERT_TRUE(bytes.ok());
    const DetectionResult r = DetectEncoding(*bytes);
    EXPECT_NE(LanguageOfEncoding(r.encoding), other)
        << EncodingName(c.encoding) << " doc " << i << " detected as "
        << EncodingName(r.encoding);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, DetectorConfusionTest,
    ::testing::Values(ConfusionCase{Language::kThai, Encoding::kTis620, 40},
                      ConfusionCase{Language::kThai, Encoding::kTis620, 400},
                      ConfusionCase{Language::kJapanese, Encoding::kEucJp, 40},
                      ConfusionCase{Language::kJapanese, Encoding::kEucJp,
                                    400},
                      ConfusionCase{Language::kJapanese,
                                    Encoding::kShiftJis, 400},
                      ConfusionCase{Language::kJapanese,
                                    Encoding::kIso2022Jp, 400}));

}  // namespace
}  // namespace lswc
