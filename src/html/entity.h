#ifndef LSWC_HTML_ENTITY_H_
#define LSWC_HTML_ENTITY_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace lswc {

/// Appends the UTF-8 encoding of `codepoint` to `out`. Invalid codepoints
/// (surrogates, > U+10FFFF) are replaced with U+FFFD.
void AppendUtf8(uint32_t codepoint, std::string* out);

/// AppendUtf8 into raw room: writes 1-4 bytes at `p` and returns the
/// end of what it wrote. Inline, for encoders writing a byte stream.
inline char* PutUtf8(uint32_t cp, char* p) {
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) cp = 0xFFFD;
  if (cp < 0x80) {
    *p++ = static_cast<char>(cp);
  } else if (cp < 0x800) {
    *p++ = static_cast<char>(0xC0 | (cp >> 6));
    *p++ = static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *p++ = static_cast<char>(0xE0 | (cp >> 12));
    *p++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *p++ = static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *p++ = static_cast<char>(0xF0 | (cp >> 18));
    *p++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *p++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *p++ = static_cast<char>(0x80 | (cp & 0x3F));
  }
  return p;
}

/// Decodes HTML character references in `text`:
///  - named references from a core set (amp, lt, gt, quot, apos, nbsp, ...),
///  - decimal (&#nnn;) and hexadecimal (&#xhh;) numeric references.
/// Unknown or malformed references are passed through verbatim, which is
/// what link extraction wants for crawl robustness.
std::string DecodeHtmlEntities(std::string_view text);

}  // namespace lswc

#endif  // LSWC_HTML_ENTITY_H_
