#include "charset/codec.h"

#include <gtest/gtest.h>

#include "charset/text_gen.h"
#include "util/random.h"

namespace lswc {
namespace {

// ---------------------------------------------------------------- UTF-8

TEST(Utf8CodecTest, RoundTripMixed) {
  const std::u32string text = U"abc ก日本語 ひらがな 123";
  const std::string bytes = EncodeUtf8(text);
  auto decoded = DecodeUtf8(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, text);
}

TEST(Utf8CodecTest, RejectsOverlong) {
  // 0xC0 0xAF is an overlong encoding of '/'.
  EXPECT_FALSE(DecodeUtf8("\xC0\xAF").ok());
}

TEST(Utf8CodecTest, RejectsSurrogates) {
  // 0xED 0xA0 0x80 encodes U+D800.
  EXPECT_FALSE(DecodeUtf8("\xED\xA0\x80").ok());
}

TEST(Utf8CodecTest, RejectsTruncation) {
  EXPECT_FALSE(DecodeUtf8("\xE0\xB8").ok());
  EXPECT_FALSE(DecodeUtf8("\xC3").ok());
}

TEST(Utf8CodecTest, RejectsBareContinuation) {
  EXPECT_FALSE(DecodeUtf8("\x80").ok());
}

// ------------------------------------------------------------ JIS tables

TEST(JisMappingTest, KnownKutenValues) {
  JisCode jis;
  ASSERT_TRUE(UnicodeToJis(U'日', &jis));
  EXPECT_EQ(jis.row, 38);
  EXPECT_EQ(jis.cell, 92);
  ASSERT_TRUE(UnicodeToJis(U'本', &jis));
  EXPECT_EQ(jis.row, 43);
  EXPECT_EQ(jis.cell, 60);
  ASSERT_TRUE(UnicodeToJis(U'あ', &jis));
  EXPECT_EQ(jis.row, 4);
  EXPECT_EQ(jis.cell, 2);  // あ is hiragana cell 2 (ぁ is 1).
  ASSERT_TRUE(UnicodeToJis(U'ア', &jis));
  EXPECT_EQ(jis.row, 5);
  EXPECT_EQ(jis.cell, 2);
}

TEST(JisMappingTest, RoundTripRepertoire) {
  // Every mappable codepoint must invert exactly.
  for (char32_t cp = 0x3000; cp <= 0x30FF; ++cp) {
    JisCode jis;
    if (!UnicodeToJis(cp, &jis)) continue;
    char32_t back = 0;
    ASSERT_TRUE(JisToUnicode(jis, &back));
    EXPECT_EQ(back, cp);
  }
}

// The whole repertoire in both directions: every mapped code inverts
// exactly, no other BMP codepoint maps, and an FNV-1a hash over the
// (kuten, codepoint) pairs pins the mapping itself.
TEST(JisMappingTest, WholeRepertoireIsPinned) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  int mapped = 0;
  for (int row = 1; row <= 94; ++row) {
    for (int cell = 1; cell <= 94; ++cell) {
      char32_t cp = 0;
      if (!JisToUnicode(JisCode{row, cell}, &cp)) continue;
      ++mapped;
      JisCode back;
      ASSERT_TRUE(UnicodeToJis(cp, &back)) << row << "-" << cell;
      EXPECT_EQ(back.row, row);
      EXPECT_EQ(back.cell, cell);
      mix(static_cast<uint32_t>(row * 100 + cell));
      mix(static_cast<uint32_t>(cp));
    }
  }
  int encodable = 0;
  for (char32_t cp = 0; cp <= 0xFFFF; ++cp) {
    JisCode jis;
    if (UnicodeToJis(cp, &jis)) ++encodable;
  }
  // 83 hiragana, 86 katakana, 12 row-1 marks, 60 kanji.
  EXPECT_EQ(mapped, 241);
  EXPECT_EQ(encodable, 241);
  EXPECT_EQ(hash, 0x5230993c2c5d49eeULL);
}

TEST(JisMappingTest, OutOfRangeRejected) {
  char32_t cp;
  EXPECT_FALSE(JisToUnicode(JisCode{0, 1}, &cp));
  EXPECT_FALSE(JisToUnicode(JisCode{95, 1}, &cp));
  EXPECT_FALSE(JisToUnicode(JisCode{4, 95}, &cp));
  JisCode jis;
  EXPECT_FALSE(UnicodeToJis(U'€', &jis));
}

// ------------------------------------------------- Japanese byte streams

// ------------------------------------------------------ streaming encoder

// Chunk boundaries do not show in the bytes: ISO-2022-JP's shift state
// carries from one Append to the next, and ASCII in between shifts out.
TEST(TextEncoderTest, ChunkedEqualsWhole) {
  const std::u32string text = U"aあい。b日本c";
  for (const Encoding e : {Encoding::kEucJp, Encoding::kShiftJis,
                           Encoding::kIso2022Jp, Encoding::kUtf8}) {
    const auto whole = EncodeText(e, text);
    ASSERT_TRUE(whole.ok());
    for (size_t cut = 0; cut <= text.size(); ++cut) {
      std::string out;
      TextEncoder encoder(e, &out);
      encoder.Append(std::u32string_view(text).substr(0, cut));
      encoder.Append(std::u32string_view(text).substr(cut));
      ASSERT_TRUE(encoder.Finish().ok());
      EXPECT_EQ(out, *whole) << EncodingName(e) << " cut " << cut;
    }
  }
  std::string out;
  TextEncoder encoder(Encoding::kIso2022Jp, &out);
  encoder.Append(U"あ");
  encoder.AppendAscii("<p>");
  encoder.Append(U"い");
  ASSERT_TRUE(encoder.Finish().ok());
  EXPECT_EQ(out, *EncodeText(Encoding::kIso2022Jp, U"あ<p>い"));
}

TEST(TextEncoderTest, FinishNamesTheFirstUnencodableCodepoint) {
  std::string out;
  TextEncoder encoder(Encoding::kTis620, &out);
  encoder.Append(U"ก€");
  encoder.AppendAscii("x");
  encoder.Append(U"…");
  const Status status = encoder.Finish();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("U+20AC"), std::string::npos) << status;
  EXPECT_NE(status.ToString().find("TIS-620"), std::string::npos) << status;
}

// Why the visitor parses every page in its own bytes except an
// ISO-2022-JP one: in every other encoding, no non-ASCII character of
// the repertoire encodes to a byte HTML markup is made of, while JIS
// pairs in ISO-2022-JP are 7-bit and can (ぜ is "$<").
TEST(CodecTest, OnlyIso2022JpTextCanFormMarkupBytes) {
  auto is_markup = [](char c) {
    const auto b = static_cast<unsigned char>(c);
    return b <= 0x20 || std::string_view("<>\"'=&/").find(c) !=
                            std::string_view::npos;
  };
  for (const Encoding e :
       {Encoding::kUtf8, Encoding::kLatin1, Encoding::kEucJp,
        Encoding::kShiftJis, Encoding::kTis620, Encoding::kWindows874}) {
    int encodable = 0;
    for (char32_t cp = 0x80; cp <= 0xFFFF; ++cp) {
      if (!CanEncode(e, cp)) continue;
      ++encodable;
      const auto bytes = EncodeText(e, std::u32string(1, cp));
      ASSERT_TRUE(bytes.ok()) << EncodingName(e) << " " << uint32_t{cp};
      for (const char c : *bytes) {
        EXPECT_FALSE(is_markup(c))
            << EncodingName(e) << " U+" << std::hex << uint32_t{cp};
      }
    }
    EXPECT_GT(encodable, 60) << EncodingName(e);
  }
  const auto ze = EncodeText(Encoding::kIso2022Jp, U"ぜ");
  ASSERT_TRUE(ze.ok());
  EXPECT_EQ(*ze, "\x1b$B$<\x1b(B");
}

TEST(EucJpCodecTest, KnownBytes) {
  // 日本 = EUC-JP C6 FC CB DC.
  auto bytes = EncodeText(Encoding::kEucJp, U"日本");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "\xC6\xFC\xCB\xDC");
}

TEST(ShiftJisCodecTest, KnownBytes) {
  // 日本 = Shift_JIS 93 FA 96 7B.
  auto bytes = EncodeText(Encoding::kShiftJis, U"日本");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "\x93\xFA\x96\x7B");
  // Hiragana あ = 82 A0.
  auto a = EncodeText(Encoding::kShiftJis, U"あ");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "\x82\xA0");
}

TEST(Iso2022JpCodecTest, EscapesAroundJapaneseRuns) {
  auto bytes = EncodeText(Encoding::kIso2022Jp, U"aあb");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "a\x1b$B$\"\x1b(Bb");
}

class JapaneseRoundTripTest : public ::testing::TestWithParam<Encoding> {};

TEST_P(JapaneseRoundTripTest, GeneratedTextRoundTrips) {
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const std::u32string text =
        GenerateText(Language::kJapanese, 200, &rng);
    auto bytes = EncodeText(GetParam(), text);
    ASSERT_TRUE(bytes.ok()) << EncodingName(GetParam());
    auto back = DecodeText(GetParam(), *bytes);
    ASSERT_TRUE(back.ok()) << EncodingName(GetParam());
    EXPECT_EQ(*back, text);
  }
}

INSTANTIATE_TEST_SUITE_P(JapaneseEncodings, JapaneseRoundTripTest,
                         ::testing::Values(Encoding::kEucJp,
                                           Encoding::kShiftJis,
                                           Encoding::kIso2022Jp,
                                           Encoding::kUtf8));

TEST(EucJpCodecTest, RejectsBadSequences) {
  EXPECT_FALSE(DecodeText(Encoding::kEucJp, "\xA4").ok());  // Truncated.
  EXPECT_FALSE(DecodeText(Encoding::kEucJp, "\xA4\x41").ok());  // Bad trail.
  EXPECT_FALSE(DecodeText(Encoding::kEucJp, "\x85\xA1").ok());  // Bad lead.
}

TEST(ShiftJisCodecTest, RejectsBadSequences) {
  EXPECT_FALSE(DecodeText(Encoding::kShiftJis, "\x82").ok());
  EXPECT_FALSE(DecodeText(Encoding::kShiftJis, "\x82\x3F").ok());
  EXPECT_FALSE(DecodeText(Encoding::kShiftJis, "\xFD\x40").ok());
}

TEST(ShiftJisCodecTest, HalfWidthKatakanaDecodes) {
  auto text = DecodeText(Encoding::kShiftJis, "\xB1\xB2");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, U"ｱｲ");
}

TEST(EucJpCodecTest, Ss2HalfWidthKatakanaDecodes) {
  auto text = DecodeText(Encoding::kEucJp, "\x8E\xB1");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, U"ｱ");
}

TEST(Iso2022JpCodecTest, RejectsEightBitBytes) {
  EXPECT_FALSE(DecodeText(Encoding::kIso2022Jp, "\xA4\xA2").ok());
}

TEST(Iso2022JpCodecTest, RejectsUnknownEscape) {
  EXPECT_FALSE(DecodeText(Encoding::kIso2022Jp, "\x1b$Z!!").ok());
}

// ------------------------------------------------------- Thai byte streams

TEST(Tis620CodecTest, KnownBytes) {
  // ก = 0xA1, า = 0xD2.
  auto bytes = EncodeText(Encoding::kTis620, U"กา");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "\xA1\xD2");
}

class ThaiRoundTripTest : public ::testing::TestWithParam<Encoding> {};

TEST_P(ThaiRoundTripTest, GeneratedTextRoundTrips) {
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    const std::u32string text = GenerateText(Language::kThai, 200, &rng);
    auto bytes = EncodeText(GetParam(), text);
    ASSERT_TRUE(bytes.ok());
    auto back = DecodeText(GetParam(), *bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, text);
  }
}

INSTANTIATE_TEST_SUITE_P(ThaiEncodings, ThaiRoundTripTest,
                         ::testing::Values(Encoding::kTis620,
                                           Encoding::kWindows874,
                                           Encoding::kUtf8));

TEST(Tis620CodecTest, RejectsGapBytes) {
  // 0xDB-0xDE is a hole in TIS-620.
  EXPECT_FALSE(DecodeText(Encoding::kTis620, "\xDB").ok());
  EXPECT_FALSE(DecodeText(Encoding::kTis620, "\xFE").ok());
  EXPECT_FALSE(DecodeText(Encoding::kTis620, "\x80").ok());
}

TEST(Windows874CodecTest, C1ExtrasRoundTrip) {
  const std::u32string text = U"x€…‘’“”y";
  auto bytes = EncodeText(Encoding::kWindows874, text);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeText(Encoding::kWindows874, *bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, text);
  // Plain TIS-620 must reject those bytes.
  EXPECT_FALSE(DecodeText(Encoding::kTis620, *bytes).ok());
}

TEST(Windows874CodecTest, EuroNotInTis620Encoder) {
  EXPECT_FALSE(EncodeText(Encoding::kTis620, U"€").ok());
}

// ----------------------------------------------------------- other paths

TEST(AsciiCodecTest, RoundTripAndRejection) {
  auto bytes = EncodeText(Encoding::kAscii, U"plain text");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "plain text");
  EXPECT_FALSE(EncodeText(Encoding::kAscii, U"é").ok());
  EXPECT_FALSE(DecodeText(Encoding::kAscii, "\xA1").ok());
}

TEST(Latin1CodecTest, FullByteRange) {
  std::u32string text;
  for (char32_t c = 1; c <= 0xFF; ++c) text.push_back(c);
  auto bytes = EncodeText(Encoding::kLatin1, text);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeText(Encoding::kLatin1, *bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, text);
}

TEST(CodecTest, UnknownEncodingRejected) {
  EXPECT_FALSE(EncodeText(Encoding::kUnknown, U"x").ok());
  EXPECT_FALSE(DecodeText(Encoding::kUnknown, "x").ok());
}

TEST(CanEncodeTest, MatchesEncodeSuccess) {
  const char32_t probes[] = {U'a', U'é', U'あ', U'ア', U'日',
                             U'ก', U'€', 0x1F600};
  const Encoding encodings[] = {
      Encoding::kAscii,  Encoding::kLatin1,     Encoding::kUtf8,
      Encoding::kEucJp,  Encoding::kShiftJis,   Encoding::kIso2022Jp,
      Encoding::kTis620, Encoding::kWindows874,
  };
  for (Encoding e : encodings) {
    for (char32_t cp : probes) {
      const bool can = CanEncode(e, cp);
      const bool did = EncodeText(e, std::u32string(1, cp)).ok();
      EXPECT_EQ(can, did) << EncodingName(e) << " cp=" << uint32_t{cp};
    }
  }
}

}  // namespace
}  // namespace lswc
