#include "charset/text_gen.h"

#include <array>

namespace lswc {

namespace {

// Frequent hiragana, weighted toward the particles/syllables that dominate
// Japanese prose (の, に, は, を, た, と, て, で, か, し, ...).
constexpr std::array<char32_t, 24> kCommonHiragana{
    U'の', U'に', U'は', U'を', U'た', U'と', U'て', U'で',
    U'か', U'し', U'い', U'う', U'ん', U'す', U'る', U'な',
    U'こ', U'れ', U'が', U'ら', U'も', U'き', U'ま', U'つ',
};

constexpr std::array<char32_t, 12> kCommonKatakana{
    U'ア', U'イ', U'ウ', U'ク', U'ス', U'ト',
    U'ラ', U'リ', U'ル', U'レ', U'ロ', U'ン',
};

// Drawn from the codec's curated kanji repertoire (codec.cc kKanji).
constexpr std::array<char32_t, 20> kCommonKanji{
    U'日', U'本', U'語', U'人', U'大', U'学', U'生', U'会', U'社', U'時',
    U'間', U'年', U'月', U'国', U'中', U'行', U'見', U'電', U'車', U'山',
};

// Thai consonants weighted toward the frequent ones.
constexpr std::array<char32_t, 20> kThaiConsonants{
    U'ก', U'ข', U'ค', U'ง', U'จ', U'ช', U'ด', U'ต', U'ท', U'น',
    U'บ', U'ป', U'พ', U'ม', U'ย', U'ร', U'ล', U'ว', U'ส', U'ห',
};

constexpr std::array<char32_t, 13> kThaiVowels{
    U'ะ', U'ั', U'า', U'ิ', U'ี', U'ึ', U'ื', U'ุ', U'ู',
    U'เ', U'แ', U'โ', U'ไ',
};

constexpr std::array<char32_t, 3> kThaiTones{U'่', U'้', U'็'};

constexpr std::array<const char32_t*, 16> kEnglishWords{
    U"the",  U"web",   U"page",  U"with",  U"link", U"from",
    U"data", U"about", U"index", U"home",  U"news", U"more",
    U"site", U"this",  U"that",  U"other",
};

template <typename Array>
char32_t Pick(const Array& a, Rng* rng) {
  return a[rng->UniformUint64(a.size())];
}

void AppendJapanese(size_t approx_chars, Rng* rng, std::u32string* out) {
  size_t n = 0;
  while (n < approx_chars) {
    const double r = rng->UniformDouble();
    if (r < 0.58) {
      out->push_back(Pick(kCommonHiragana, rng));
      ++n;
    } else if (r < 0.70) {
      // Katakana loanword run.
      const size_t len = 2 + rng->UniformUint64(4);
      for (size_t i = 0; i < len; ++i) {
        out->push_back(Pick(kCommonKatakana, rng));
      }
      n += len;
    } else if (r < 0.88) {
      out->push_back(Pick(kCommonKanji, rng));
      ++n;
    } else if (r < 0.95) {
      out->push_back(rng->Bernoulli(0.7) ? U'。' : U'、');
      ++n;
    } else {
      // Occasional ASCII (numbers, acronyms).
      const size_t len = 1 + rng->UniformUint64(3);
      for (size_t i = 0; i < len; ++i) {
        out->push_back(U'0' + static_cast<char32_t>(rng->UniformUint64(10)));
      }
      n += len;
    }
  }
}

void AppendThai(size_t approx_chars, Rng* rng, std::u32string* out) {
  size_t n = 0;
  size_t since_space = 0;
  while (n < approx_chars) {
    // One syllable: [leading vowel] consonant [vowel] [tone].
    if (rng->Bernoulli(0.25)) {
      out->push_back(Pick(kThaiVowels, rng));
      ++n;
    }
    out->push_back(Pick(kThaiConsonants, rng));
    ++n;
    if (rng->Bernoulli(0.7)) {
      out->push_back(Pick(kThaiVowels, rng));
      ++n;
    }
    if (rng->Bernoulli(0.3)) {
      out->push_back(Pick(kThaiTones, rng));
      ++n;
    }
    since_space += 3;
    // Thai separates phrases, not words: long runs between spaces.
    if (since_space > 24 && rng->Bernoulli(0.3)) {
      out->push_back(U' ');
      since_space = 0;
      ++n;
    }
  }
}

void AppendEnglish(size_t approx_chars, Rng* rng, std::u32string* out) {
  size_t n = 0;
  while (n < approx_chars) {
    const char32_t* w = kEnglishWords[rng->UniformUint64(kEnglishWords.size())];
    for (const char32_t* p = w; *p != 0; ++p) {
      out->push_back(*p);
      ++n;
    }
    out->push_back(rng->Bernoulli(0.1) ? U'.' : U' ');
    ++n;
  }
}

}  // namespace

std::u32string GenerateText(Language lang, size_t approx_chars, Rng* rng) {
  std::u32string out;
  out.reserve(approx_chars + 8);
  AppendText(lang, approx_chars, rng, &out);
  return out;
}

std::u32string GenerateTitle(Language lang, Rng* rng) {
  std::u32string out;
  AppendTitle(lang, rng, &out);
  return out;
}

void AppendText(Language lang, size_t approx_chars, Rng* rng,
                std::u32string* out) {
  switch (lang) {
    case Language::kJapanese:
      AppendJapanese(approx_chars, rng, out);
      break;
    case Language::kThai:
      AppendThai(approx_chars, rng, out);
      break;
    case Language::kOther:
    case Language::kUnknown:
      AppendEnglish(approx_chars, rng, out);
      break;
  }
}

void AppendTitle(Language lang, Rng* rng, std::u32string* out) {
  AppendText(lang, 8 + rng->UniformUint64(12), rng, out);
}

}  // namespace lswc
