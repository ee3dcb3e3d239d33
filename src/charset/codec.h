#ifndef LSWC_CHARSET_CODEC_H_
#define LSWC_CHARSET_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "charset/encoding.h"
#include "util/status.h"

namespace lswc {

/// True when `cp` is representable in encoding `e` by this codec.
///
/// Japanese repertoire: ASCII, JIS X 0208 row-1 punctuation subset,
/// full hiragana & katakana rows, and a curated common-kanji subset
/// (see codec.cc); the synthetic-content generator draws only from this
/// repertoire, so encode of generated text never fails.
bool CanEncode(Encoding e, char32_t cp);

/// Encodes a document in encoding `e` chunk by chunk, appending to a
/// caller's string: text through Append, ASCII markup through
/// AppendAscii or straight into ascii_out(). ISO-2022-JP's shift state
/// carries across chunks, so the bytes equal EncodeText over the whole
/// document. An unrepresentable codepoint is reported once, by Finish;
/// the output is then unspecified.
class TextEncoder {
 public:
  /// `out` is not owned and must outlive the encoder.
  TextEncoder(Encoding e, std::string* out);

  void Append(std::u32string_view text);
  void AppendAscii(std::string_view ascii) {
    if (!ascii.empty()) ascii_out()->append(ascii);
  }
  /// Returns the output in ASCII mode, for appending ASCII bytes in
  /// place.
  std::string* ascii_out();

  /// Ends the document in ASCII mode. InvalidArgument naming the first
  /// unrepresentable codepoint, or for an unknown encoding.
  Status Finish();

 private:
  template <Encoding kE>
  void AppendIn(std::u32string_view text);
  void Reject(char32_t cp);

  Encoding encoding_;
  std::string* out_;
  bool in_jis_ = false;  // ISO-2022-JP: inside an ESC $ B run.
  std::optional<char32_t> first_rejected_;
};

/// Encodes UTF-32 text into the byte stream of encoding `e`. Fails with
/// InvalidArgument on an unrepresentable codepoint.
StatusOr<std::string> EncodeText(Encoding e, const std::u32string& text);

/// Decodes a byte stream in encoding `e` back to UTF-32. Fails with
/// Corruption on invalid sequences (no silent replacement: the probers,
/// not the codec, are in charge of guessing).
StatusOr<std::u32string> DecodeText(Encoding e, std::string_view bytes);

/// UTF-8 specific helpers (also used by the UTF-8 prober and tests).
StatusOr<std::u32string> DecodeUtf8(std::string_view bytes);
std::string EncodeUtf8(const std::u32string& text);

/// A JIS X 0208 code point (row/cell a.k.a. ku-ten, both 1-based).
struct JisCode {
  int row = 0;
  int cell = 0;
};

/// Maps a Unicode codepoint into JIS X 0208 row/cell for the supported
/// repertoire; returns false if unmapped.
bool UnicodeToJis(char32_t cp, JisCode* out);
/// Inverse of UnicodeToJis; returns false for rows/cells outside the
/// supported repertoire.
bool JisToUnicode(JisCode code, char32_t* out);

}  // namespace lswc

#endif  // LSWC_CHARSET_CODEC_H_
