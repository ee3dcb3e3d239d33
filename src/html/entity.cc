#include "html/entity.h"

#include <array>

#include "util/string_util.h"

namespace lswc {

void AppendUtf8(uint32_t cp, std::string* out) {
  char bytes[4];
  out->append(bytes, PutUtf8(cp, bytes));
}

namespace {

struct NamedEntity {
  std::string_view name;
  uint32_t codepoint;
};

// Core HTML 4 named entities relevant to URL text and page prose; names
// are matched case-sensitively as in the spec.
constexpr std::array<NamedEntity, 20> kNamedEntities{{
    {"amp", '&'},    {"lt", '<'},      {"gt", '>'},     {"quot", '"'},
    {"apos", '\''},  {"nbsp", 0xA0},   {"copy", 0xA9},  {"reg", 0xAE},
    {"trade", 0x2122}, {"hellip", 0x2026}, {"mdash", 0x2014},
    {"ndash", 0x2013}, {"lsquo", 0x2018}, {"rsquo", 0x2019},
    {"ldquo", 0x201C}, {"rdquo", 0x201D}, {"middot", 0xB7},
    {"laquo", 0xAB}, {"raquo", 0xBB}, {"deg", 0xB0},
}};

// Decodes one reference starting at text[i] == '&'. On success appends the
// decoded character and returns the index just past the reference;
// otherwise returns i (caller copies '&' verbatim).
size_t DecodeOne(std::string_view text, size_t i, std::string* out) {
  const size_t n = text.size();
  size_t j = i + 1;
  if (j >= n) return i;
  if (text[j] == '#') {
    ++j;
    uint32_t cp = 0;
    size_t digits = 0;
    if (j < n && (text[j] == 'x' || text[j] == 'X')) {
      ++j;
      while (j < n && IsAsciiHexDigit(text[j]) && digits < 8) {
        cp = cp * 16 + static_cast<uint32_t>(HexDigitValue(text[j]));
        ++j;
        ++digits;
      }
    } else {
      while (j < n && IsAsciiDigit(text[j]) && digits < 8) {
        cp = cp * 10 + static_cast<uint32_t>(text[j] - '0');
        ++j;
        ++digits;
      }
    }
    if (digits == 0) return i;
    if (j < n && text[j] == ';') ++j;  // Semicolon optional in the wild.
    AppendUtf8(cp, out);
    return j;
  }
  // Named reference: longest run of alnum up to 10 chars, then ';'.
  size_t k = j;
  while (k < n && IsAsciiAlnum(text[k]) && k - j < 10) ++k;
  if (k == j || k >= n || text[k] != ';') return i;
  const std::string_view name = text.substr(j, k - j);
  for (const auto& e : kNamedEntities) {
    if (e.name == name) {
      AppendUtf8(e.codepoint, out);
      return k + 1;
    }
  }
  return i;
}

}  // namespace

std::string DecodeHtmlEntities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '&') {
      const size_t next = DecodeOne(text, i, &out);
      if (next != i) {
        i = next;
        continue;
      }
    }
    out.push_back(text[i]);
    ++i;
  }
  return out;
}

}  // namespace lswc
