#include "charset/codec.h"

#include <algorithm>
#include <array>
#include <span>

#include "html/entity.h"
#include "util/string_util.h"

namespace lswc {

namespace {

// -- JIS X 0208 repertoire ---------------------------------------------
//
// Hiragana (row 4) and katakana (row 5) map algorithmically. Row 1 holds
// punctuation. Kanji come from a curated subset of level-1 kanji: enough
// for realistic synthetic Japanese text; the encoder/decoder/probers all
// share this table so the pipeline is self-consistent end to end.

struct JisPair {
  uint16_t kuten;  // row * 100 + cell.
  char32_t cp;
};

// Row-1 punctuation subset.
constexpr std::array<JisPair, 12> kRow1{{
    {101, U'　'},  // ideographic space
    {102, U'、'},  // 、
    {103, U'。'},  // 。
    {104, U'，'},  // ，
    {105, U'．'},  // ．
    {106, U'・'},  // ・
    {107, U'：'},  // ：
    {108, U'；'},  // ；
    {109, U'？'},  // ？
    {110, U'！'},  // ！
    {128, U'ー'},  // ー (prolonged sound mark)
    {129, U'―'},  // ―
}};

// Curated common kanji (row/cell within JIS X 0208 level 1, rows 16-47).
// The exact standard ku-ten values for 日(38-92) and 本(43-60) are real;
// the remainder are assigned stable codes inside level-1 rows.
constexpr std::array<JisPair, 60> kKanji{{
    {3892, U'日'},  // 日
    {4360, U'本'},  // 本
    {2448, U'語'},  // 語
    {1601, U'亜'},  // 亜
    {1605, U'娃'},  // 娃
    {1701, U'人'},  // 人
    {1702, U'大'},  // 大
    {1703, U'学'},  // 学
    {1704, U'生'},  // 生
    {1705, U'先'},  // 先
    {1706, U'会'},  // 会
    {1707, U'社'},  // 社
    {1708, U'時'},  // 時
    {1709, U'間'},  // 間
    {1710, U'年'},  // 年
    {1711, U'月'},  // 月
    {1712, U'火'},  // 火
    {1713, U'水'},  // 水
    {1714, U'木'},  // 木
    {1715, U'金'},  // 金
    {1716, U'土'},  // 土
    {1717, U'国'},  // 国
    {1718, U'中'},  // 中
    {1719, U'外'},  // 外
    {1720, U'前'},  // 前
    {1721, U'後'},  // 後
    {1722, U'上'},  // 上
    {1723, U'下'},  // 下
    {1724, U'左'},  // 左
    {1725, U'右'},  // 右
    {1726, U'手'},  // 手
    {1727, U'足'},  // 足
    {1728, U'目'},  // 目
    {1729, U'口'},  // 口
    {1730, U'耳'},  // 耳
    {1731, U'心'},  // 心
    {1732, U'思'},  // 思
    {1733, U'言'},  // 言
    {1734, U'読'},  // 読
    {1735, U'書'},  // 書
    {1736, U'見'},  // 見
    {1737, U'聞'},  // 聞
    {1738, U'食'},  // 食
    {1739, U'飲'},  // 飲
    {1740, U'行'},  // 行
    {1741, U'来'},  // 来
    {1742, U'帰'},  // 帰
    {1743, U'住'},  // 住
    {1744, U'駅'},  // 駅
    {1745, U'道'},  // 道
    {1746, U'町'},  // 町
    {1747, U'村'},  // 村
    {1748, U'島'},  // 島
    {1749, U'川'},  // 川
    {1750, U'山'},  // 山
    {1751, U'海'},  // 海
    {1752, U'空'},  // 空
    {1753, U'電'},  // 電
    {1754, U'車'},  // 車
    {1755, U'験'},  // 験
}};

constexpr char32_t kHiraganaFirst = U'ぁ';
constexpr char32_t kHiraganaLast = U'ん';
constexpr char32_t kKatakanaFirst = U'ァ';
constexpr char32_t kKatakanaLast = U'ヶ';

// Thai block handled by TIS-620: two contiguous runs.
constexpr char32_t kThaiRun1First = U'ก';
constexpr char32_t kThaiRun1Last = U'ฺ';
constexpr char32_t kThaiRun2First = U'฿';
constexpr char32_t kThaiRun2Last = U'๛';

// windows-874 extras in the C1 range.
struct Win874Extra {
  unsigned char byte;
  char32_t cp;
};
constexpr std::array<Win874Extra, 8> kWin874Extras{{
    {0x80, U'€'},
    {0x85, U'…'},
    {0x91, U'‘'},
    {0x92, U'’'},
    {0x93, U'“'},
    {0x94, U'”'},
    {0x95, U'•'},
    {0x96, U'–'},
}};

// Every supported JIS X 0208 code, built at compile time from the kana
// ranges, kRow1 and kKanji. Where two entries would claim the same
// code or codepoint, the earlier one wins, in that order.
constexpr int kJisRows = 94;

struct JisTables {
  // (row - 1) * 94 + (cell - 1) -> codepoint; 0 where unmapped. The
  // repertoire lies in the BMP.
  std::array<char16_t, kJisRows * kJisRows> to_unicode{};
  // kRow1 and kKanji sorted by codepoint, stably, so the first of equal
  // codepoints is the earlier entry.
  std::array<JisPair, kRow1.size() + kKanji.size()> from_unicode{};
};

constexpr JisTables BuildJisTables() {
  JisTables t;
  auto map = [&t](int row, int cell, char32_t cp) {
    char16_t& slot = t.to_unicode[(row - 1) * kJisRows + (cell - 1)];
    if (slot == 0) slot = static_cast<char16_t>(cp);
  };
  for (char32_t cp = kHiraganaFirst; cp <= kHiraganaLast; ++cp) {
    map(4, static_cast<int>(cp - kHiraganaFirst) + 1, cp);
  }
  for (char32_t cp = kKatakanaFirst; cp <= kKatakanaLast; ++cp) {
    map(5, static_cast<int>(cp - kKatakanaFirst) + 1, cp);
  }
  size_t n = 0;
  for (const auto& table : {std::span<const JisPair>(kRow1),
                            std::span<const JisPair>(kKanji)}) {
    for (const JisPair& p : table) {
      map(p.kuten / 100, p.kuten % 100, p.cp);
      // Insertion sort: stable, and 72 entries are few.
      size_t i = n++;
      while (i > 0 && t.from_unicode[i - 1].cp > p.cp) {
        t.from_unicode[i] = t.from_unicode[i - 1];
        --i;
      }
      t.from_unicode[i] = p;
    }
  }
  return t;
}

constexpr JisTables kJis = BuildJisTables();

bool Tis620FromUnicode(char32_t cp, unsigned char* out) {
  if (cp >= kThaiRun1First && cp <= kThaiRun1Last) {
    *out = static_cast<unsigned char>(0xA1 + (cp - kThaiRun1First));
    return true;
  }
  if (cp >= kThaiRun2First && cp <= kThaiRun2Last) {
    *out = static_cast<unsigned char>(0xDF + (cp - kThaiRun2First));
    return true;
  }
  return false;
}

bool Win874ExtraFromUnicode(char32_t cp, unsigned char* out) {
  for (const auto& x : kWin874Extras) {
    if (x.cp == cp) {
      *out = x.byte;
      return true;
    }
  }
  return false;
}

bool Tis620ToUnicode(unsigned char b, char32_t* out) {
  if (b >= 0xA1 && b <= 0xDA) {
    *out = kThaiRun1First + (b - 0xA1);
    return true;
  }
  if (b >= 0xDF && b <= 0xFB) {
    *out = kThaiRun2First + (b - 0xDF);
    return true;
  }
  return false;
}

}  // namespace

bool UnicodeToJis(char32_t cp, JisCode* out) {
  if (cp >= kHiraganaFirst && cp <= kHiraganaLast) {
    out->row = 4;
    out->cell = static_cast<int>(cp - kHiraganaFirst) + 1;
    return true;
  }
  if (cp >= kKatakanaFirst && cp <= kKatakanaLast) {
    out->row = 5;
    out->cell = static_cast<int>(cp - kKatakanaFirst) + 1;
    return true;
  }
  const auto& table = kJis.from_unicode;
  const auto it = std::lower_bound(
      table.begin(), table.end(), cp,
      [](const JisPair& p, char32_t key) { return p.cp < key; });
  if (it == table.end() || it->cp != cp) return false;
  out->row = it->kuten / 100;
  out->cell = it->kuten % 100;
  return true;
}

bool JisToUnicode(JisCode code, char32_t* out) {
  if (code.row < 1 || code.row > kJisRows || code.cell < 1 ||
      code.cell > kJisRows) {
    return false;
  }
  const char16_t cp =
      kJis.to_unicode[(code.row - 1) * kJisRows + (code.cell - 1)];
  if (cp == 0) return false;
  *out = cp;
  return true;
}

bool CanEncode(Encoding e, char32_t cp) {
  switch (e) {
    case Encoding::kAscii:
      return cp < 0x80;
    case Encoding::kUtf8:
      return cp <= 0x10FFFF && !(cp >= 0xD800 && cp <= 0xDFFF);
    case Encoding::kLatin1:
      return cp <= 0xFF;
    case Encoding::kEucJp:
    case Encoding::kShiftJis:
    case Encoding::kIso2022Jp: {
      if (cp < 0x80) return true;
      JisCode jis;
      return UnicodeToJis(cp, &jis);
    }
    case Encoding::kTis620: {
      unsigned char b;
      return cp < 0x80 || Tis620FromUnicode(cp, &b);
    }
    case Encoding::kWindows874: {
      unsigned char b;
      return cp < 0x80 || Tis620FromUnicode(cp, &b) ||
             Win874ExtraFromUnicode(cp, &b);
    }
    case Encoding::kUnknown:
    case Encoding::kNumEncodings:
      return false;
  }
  return false;
}

std::string EncodeUtf8(const std::u32string& text) {
  std::string out;
  out.reserve(text.size() * 2);
  for (char32_t cp : text) AppendUtf8(cp, &out);
  return out;
}

StatusOr<std::u32string> DecodeUtf8(std::string_view bytes) {
  std::u32string out;
  out.reserve(bytes.size());
  size_t i = 0;
  while (i < bytes.size()) {
    const unsigned char b0 = static_cast<unsigned char>(bytes[i]);
    uint32_t cp;
    size_t len;
    if (b0 < 0x80) {
      cp = b0;
      len = 1;
    } else if ((b0 & 0xE0) == 0xC0) {
      cp = b0 & 0x1F;
      len = 2;
    } else if ((b0 & 0xF0) == 0xE0) {
      cp = b0 & 0x0F;
      len = 3;
    } else if ((b0 & 0xF8) == 0xF0) {
      cp = b0 & 0x07;
      len = 4;
    } else {
      return Status::Corruption("invalid UTF-8 lead byte");
    }
    if (i + len > bytes.size()) return Status::Corruption("truncated UTF-8");
    for (size_t k = 1; k < len; ++k) {
      const unsigned char b = static_cast<unsigned char>(bytes[i + k]);
      if ((b & 0xC0) != 0x80) return Status::Corruption("bad continuation");
      cp = (cp << 6) | (b & 0x3F);
    }
    // Reject overlong forms and surrogates.
    static constexpr uint32_t kMin[5] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < kMin[len] || cp > 0x10FFFF ||
        (cp >= 0xD800 && cp <= 0xDFFF)) {
      return Status::Corruption("non-canonical UTF-8 sequence");
    }
    out.push_back(static_cast<char32_t>(cp));
    i += len;
  }
  return out;
}

namespace {

Status DecodeEucJp(std::string_view bytes, std::u32string* out) {
  size_t i = 0;
  while (i < bytes.size()) {
    const unsigned char b0 = static_cast<unsigned char>(bytes[i]);
    if (b0 < 0x80) {
      out->push_back(b0);
      ++i;
      continue;
    }
    if (b0 == 0x8E) {  // SS2: half-width katakana.
      if (i + 1 >= bytes.size()) return Status::Corruption("truncated SS2");
      const unsigned char b1 = static_cast<unsigned char>(bytes[i + 1]);
      if (b1 < 0xA1 || b1 > 0xDF) return Status::Corruption("bad SS2 byte");
      out->push_back(0xFF61 + (b1 - 0xA1));
      i += 2;
      continue;
    }
    if (b0 < 0xA1 || b0 > 0xFE) return Status::Corruption("bad EUC-JP lead");
    if (i + 1 >= bytes.size()) return Status::Corruption("truncated EUC-JP");
    const unsigned char b1 = static_cast<unsigned char>(bytes[i + 1]);
    if (b1 < 0xA1 || b1 > 0xFE) return Status::Corruption("bad EUC-JP trail");
    char32_t cp;
    if (!JisToUnicode(JisCode{b0 - 0xA0, b1 - 0xA0}, &cp)) {
      return Status::Corruption("JIS code outside supported repertoire");
    }
    out->push_back(cp);
    i += 2;
  }
  return Status::OK();
}

// JIS row/cell <-> Shift_JIS bytes (standard algorithmic transform):
// rows pair up under one lead byte; leads run 0x81-0x9F (rows 1-62) and
// 0xE0-0xEF (rows 63-94); odd rows use trails 0x40-0x9E (skipping 0x7F),
// even rows 0x9F-0xFC.
void JisToSjis(JisCode jis, unsigned char* lead, unsigned char* trail) {
  const int row = jis.row;
  const int cell = jis.cell;
  const int pair = (row - 1) / 2;
  *lead = static_cast<unsigned char>(pair + (row <= 62 ? 0x81 : 0xC1));
  if (row % 2 == 1) {
    *trail = static_cast<unsigned char>(cell + 0x3F + (cell >= 64 ? 1 : 0));
  } else {
    *trail = static_cast<unsigned char>(cell + 0x9E);
  }
}

bool SjisToJis(unsigned char lead, unsigned char trail, JisCode* jis) {
  int pair;
  if (lead >= 0x81 && lead <= 0x9F) {
    pair = lead - 0x81;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    pair = lead - 0xC1;
  } else {
    return false;
  }
  if (trail >= 0x40 && trail <= 0x9E && trail != 0x7F) {
    jis->row = pair * 2 + 1;
    jis->cell = trail - 0x3F - (trail > 0x7F ? 1 : 0);
  } else if (trail >= 0x9F && trail <= 0xFC) {
    jis->row = pair * 2 + 2;
    jis->cell = trail - 0x9E;
  } else {
    return false;
  }
  return jis->cell >= 1 && jis->cell <= 94;
}

Status DecodeShiftJis(std::string_view bytes, std::u32string* out) {
  size_t i = 0;
  while (i < bytes.size()) {
    const unsigned char b0 = static_cast<unsigned char>(bytes[i]);
    if (b0 < 0x80) {
      out->push_back(b0);
      ++i;
      continue;
    }
    if (b0 >= 0xA1 && b0 <= 0xDF) {  // Half-width katakana.
      out->push_back(0xFF61 + (b0 - 0xA1));
      ++i;
      continue;
    }
    if (i + 1 >= bytes.size()) return Status::Corruption("truncated SJIS");
    const unsigned char b1 = static_cast<unsigned char>(bytes[i + 1]);
    JisCode jis;
    if (!SjisToJis(b0, b1, &jis)) {
      return Status::Corruption("bad Shift_JIS sequence");
    }
    char32_t cp;
    if (!JisToUnicode(jis, &cp)) {
      return Status::Corruption("JIS code outside supported repertoire");
    }
    out->push_back(cp);
    i += 2;
  }
  return Status::OK();
}

Status DecodeIso2022Jp(std::string_view bytes, std::u32string* out) {
  bool in_jis = false;
  size_t i = 0;
  while (i < bytes.size()) {
    const unsigned char b0 = static_cast<unsigned char>(bytes[i]);
    if (b0 == 0x1B) {
      if (i + 2 >= bytes.size()) return Status::Corruption("truncated escape");
      const char c1 = bytes[i + 1];
      const char c2 = bytes[i + 2];
      if (c1 == '$' && (c2 == 'B' || c2 == '@')) {
        in_jis = true;
      } else if (c1 == '(' && (c2 == 'B' || c2 == 'J')) {
        in_jis = false;
      } else {
        return Status::Corruption("unsupported ISO-2022 escape");
      }
      i += 3;
      continue;
    }
    if (b0 >= 0x80) return Status::Corruption("8-bit byte in ISO-2022-JP");
    if (!in_jis) {
      out->push_back(b0);
      ++i;
      continue;
    }
    if (i + 1 >= bytes.size()) return Status::Corruption("truncated JIS pair");
    const unsigned char b1 = static_cast<unsigned char>(bytes[i + 1]);
    if (b0 < 0x21 || b0 > 0x7E || b1 < 0x21 || b1 > 0x7E) {
      return Status::Corruption("bad JIS pair");
    }
    char32_t cp;
    if (!JisToUnicode(JisCode{b0 - 0x20, b1 - 0x20}, &cp)) {
      return Status::Corruption("JIS code outside supported repertoire");
    }
    out->push_back(cp);
    i += 2;
  }
  return Status::OK();
}

Status DecodeTis620Like(Encoding e, std::string_view bytes,
                        std::u32string* out) {
  for (char c : bytes) {
    const unsigned char b = static_cast<unsigned char>(c);
    if (b < 0x80) {
      out->push_back(b);
      continue;
    }
    char32_t cp;
    if (Tis620ToUnicode(b, &cp)) {
      out->push_back(cp);
      continue;
    }
    if (e == Encoding::kWindows874) {
      bool found = false;
      for (const auto& x : kWin874Extras) {
        if (x.byte == b) {
          out->push_back(x.cp);
          found = true;
          break;
        }
      }
      if (found) continue;
    }
    return Status::Corruption("byte outside TIS-620 repertoire");
  }
  return Status::OK();
}

}  // namespace

TextEncoder::TextEncoder(Encoding e, std::string* out)
    : encoding_(e), out_(out) {}

namespace {

// The most bytes one codepoint takes in encoding `e`, counting the
// ISO-2022-JP escape that may precede it.
constexpr size_t MaxBytesPerCodepoint(Encoding e) {
  switch (e) {
    case Encoding::kIso2022Jp:
      return 5;
    case Encoding::kUtf8:
      return 4;
    case Encoding::kEucJp:
    case Encoding::kShiftJis:
      return 2;
    default:
      return 1;
  }
}

char* PutEscape(const char (&escape)[4], char* p) {
  p[0] = escape[0];
  p[1] = escape[1];
  p[2] = escape[2];
  return p + 3;
}

}  // namespace

template <Encoding kE>
void TextEncoder::AppendIn(std::u32string_view text) {
  // Bytes go through a raw pointer into room made up front: stored one
  // by one with push_back, each byte re-reads the string's length.
  const size_t start = out_->size();
  out_->resize(start + MaxBytesPerCodepoint(kE) * text.size());
  char* p = out_->data() + start;
  for (const char32_t cp : text) {
    if (cp < 0x80) {
      if constexpr (kE == Encoding::kIso2022Jp) {
        if (in_jis_) {
          p = PutEscape("\x1b(B", p);
          in_jis_ = false;
        }
      }
      *p++ = static_cast<char>(cp);
      continue;
    }
    if constexpr (kE == Encoding::kUtf8) {
      p = PutUtf8(cp, p);
    } else if constexpr (kE == Encoding::kEucJp ||
                         kE == Encoding::kShiftJis ||
                         kE == Encoding::kIso2022Jp) {
      JisCode jis;
      if (!UnicodeToJis(cp, &jis)) {
        Reject(cp);
        continue;
      }
      if constexpr (kE == Encoding::kEucJp) {
        *p++ = static_cast<char>(0xA0 + jis.row);
        *p++ = static_cast<char>(0xA0 + jis.cell);
      } else if constexpr (kE == Encoding::kShiftJis) {
        unsigned char lead, trail;
        JisToSjis(jis, &lead, &trail);
        *p++ = static_cast<char>(lead);
        *p++ = static_cast<char>(trail);
      } else {
        if (!in_jis_) {
          p = PutEscape("\x1b$B", p);
          in_jis_ = true;
        }
        *p++ = static_cast<char>(0x20 + jis.row);
        *p++ = static_cast<char>(0x20 + jis.cell);
      }
    } else {
      // Single-byte encodings.
      unsigned char b = 0;
      bool ok = false;
      if constexpr (kE == Encoding::kLatin1) {
        ok = cp <= 0xFF;
        b = static_cast<unsigned char>(cp);
      } else if constexpr (kE == Encoding::kTis620 ||
                           kE == Encoding::kWindows874) {
        ok = Tis620FromUnicode(cp, &b);
        if constexpr (kE == Encoding::kWindows874) {
          ok = ok || Win874ExtraFromUnicode(cp, &b);
        }
      }
      if (!ok) {
        Reject(cp);
        continue;
      }
      *p++ = static_cast<char>(b);
    }
  }
  out_->resize(static_cast<size_t>(p - out_->data()));
}

void TextEncoder::Append(std::u32string_view text) {
  switch (encoding_) {
    case Encoding::kAscii:
      return AppendIn<Encoding::kAscii>(text);
    case Encoding::kUtf8:
      return AppendIn<Encoding::kUtf8>(text);
    case Encoding::kLatin1:
      return AppendIn<Encoding::kLatin1>(text);
    case Encoding::kEucJp:
      return AppendIn<Encoding::kEucJp>(text);
    case Encoding::kShiftJis:
      return AppendIn<Encoding::kShiftJis>(text);
    case Encoding::kIso2022Jp:
      return AppendIn<Encoding::kIso2022Jp>(text);
    case Encoding::kTis620:
      return AppendIn<Encoding::kTis620>(text);
    case Encoding::kWindows874:
      return AppendIn<Encoding::kWindows874>(text);
    case Encoding::kUnknown:
    case Encoding::kNumEncodings:
      return;  // Finish reports the encoding.
  }
}

std::string* TextEncoder::ascii_out() {
  if (in_jis_) {
    out_->append("\x1b(B");
    in_jis_ = false;
  }
  return out_;
}

Status TextEncoder::Finish() {
  if (encoding_ == Encoding::kUnknown ||
      encoding_ == Encoding::kNumEncodings) {
    return Status::InvalidArgument("cannot encode to unknown encoding");
  }
  ascii_out();
  if (first_rejected_.has_value()) {
    return Status::InvalidArgument(
        StringPrintf("codepoint U+%04X not in the %s repertoire",
                     static_cast<unsigned>(*first_rejected_),
                     std::string(EncodingName(encoding_)).c_str()));
  }
  return Status::OK();
}

void TextEncoder::Reject(char32_t cp) {
  if (!first_rejected_.has_value()) first_rejected_ = cp;
}

StatusOr<std::string> EncodeText(Encoding e, const std::u32string& text) {
  std::string out;
  TextEncoder encoder(e, &out);
  encoder.Append(text);
  LSWC_RETURN_IF_ERROR(encoder.Finish());
  return out;
}

StatusOr<std::u32string> DecodeText(Encoding e, std::string_view bytes) {
  std::u32string out;
  out.reserve(bytes.size());
  Status s = Status::OK();
  switch (e) {
    case Encoding::kAscii:
      for (char c : bytes) {
        if (static_cast<unsigned char>(c) >= 0x80) {
          return Status::Corruption("8-bit byte in ASCII stream");
        }
        out.push_back(static_cast<char32_t>(c));
      }
      break;
    case Encoding::kUtf8:
      return DecodeUtf8(bytes);
    case Encoding::kLatin1:
      for (char c : bytes) {
        out.push_back(static_cast<unsigned char>(c));
      }
      break;
    case Encoding::kEucJp:
      s = DecodeEucJp(bytes, &out);
      break;
    case Encoding::kShiftJis:
      s = DecodeShiftJis(bytes, &out);
      break;
    case Encoding::kIso2022Jp:
      s = DecodeIso2022Jp(bytes, &out);
      break;
    case Encoding::kTis620:
    case Encoding::kWindows874:
      s = DecodeTis620Like(e, bytes, &out);
      break;
    case Encoding::kUnknown:
    case Encoding::kNumEncodings:
      return Status::InvalidArgument("cannot decode unknown encoding");
  }
  if (!s.ok()) return s;
  return out;
}

}  // namespace lswc
