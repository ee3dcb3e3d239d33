#ifndef LSWC_CHARSET_TEXT_GEN_H_
#define LSWC_CHARSET_TEXT_GEN_H_

#include <string>

#include "charset/encoding.h"
#include "util/random.h"

namespace lswc {

/// Generates synthetic prose in a language, as UTF-32 codepoints drawn
/// from frequency models that mimic the language's character-class
/// distribution:
///  - Japanese: hiragana-dominant prose with katakana runs, common kanji,
///    ideographic punctuation and occasional ASCII,
///  - Thai: consonant/vowel/tone syllables with phrase spaces (Thai does
///    not put spaces between words),
///  - Other: English-like ASCII word salad.
///
/// Every generated codepoint is encodable in the corresponding Table 1
/// encodings (see CanEncode), so page rendering never fails.
std::u32string GenerateText(Language lang, size_t approx_chars, Rng* rng);

/// Generates a short title (a few words) in the language.
std::u32string GenerateTitle(Language lang, Rng* rng);

/// Append forms of the two above: the same draws and codepoints, added
/// to the end of `out` (a renderer reuses one buffer for every chunk).
void AppendText(Language lang, size_t approx_chars, Rng* rng,
                std::u32string* out);
void AppendTitle(Language lang, Rng* rng, std::u32string* out);

}  // namespace lswc

#endif  // LSWC_CHARSET_TEXT_GEN_H_
