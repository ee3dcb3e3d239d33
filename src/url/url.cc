#include "url/url.h"

#include <cassert>

#include "util/string_util.h"

namespace lswc {

namespace {

bool IsSchemeStart(char c) { return IsAsciiAlpha(c); }
bool IsSchemeChar(char c) {
  return IsAsciiAlnum(c) || c == '+' || c == '-' || c == '.';
}

// Default ports dropped by normalization.
int DefaultPort(std::string_view scheme) {
  if (scheme == "http") return 80;
  if (scheme == "https") return 443;
  if (scheme == "ftp") return 21;
  return -1;
}

// Unreserved characters (RFC 3986 §2.3) whose escapes are decodable.
bool IsUnreserved(char c) {
  return IsAsciiAlnum(c) || c == '-' || c == '.' || c == '_' || c == '~';
}

// Parses the authority component "userinfo@host:port".
Status ParseAuthority(std::string_view auth, ParsedUrl* url) {
  url->has_authority = true;
  const size_t at = auth.rfind('@');
  if (at != std::string_view::npos) auth = auth.substr(at + 1);  // Skip userinfo.
  // IPv6 literal: [..]:port
  std::string_view host;
  std::string_view port_text;
  if (!auth.empty() && auth.front() == '[') {
    const size_t close = auth.find(']');
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated IPv6 literal");
    }
    host = auth.substr(0, close + 1);
    std::string_view rest = auth.substr(close + 1);
    if (!rest.empty()) {
      if (rest.front() != ':') {
        return Status::InvalidArgument("garbage after IPv6 literal");
      }
      port_text = rest.substr(1);
    }
  } else {
    const size_t colon = auth.rfind(':');
    if (colon != std::string_view::npos) {
      host = auth.substr(0, colon);
      port_text = auth.substr(colon + 1);
    } else {
      host = auth;
    }
    // A reg-name host must not contain ':' (that is the port separator)
    // or brackets (IPv6 syntax); accepting them would make ToString()
    // ambiguous to re-parse.
    for (char c : host) {
      if (c == ':' || c == '[' || c == ']') {
        return Status::InvalidArgument("invalid character in host");
      }
    }
  }
  url->host = AsciiStrToLower(host);
  if (!port_text.empty()) {
    const auto port = ParseUint64(port_text);
    if (!port.has_value() || *port > 65535) {
      return Status::InvalidArgument("invalid port");
    }
    url->port = static_cast<int>(*port);
  }
  return Status::OK();
}

}  // namespace

std::string ParsedUrl::ToString() const {
  std::string out;
  if (!scheme.empty()) {
    out += scheme;
    out += ':';
  }
  if (has_authority) {
    out += "//";
    out += host;
    if (port >= 0) {
      out += ':';
      out += std::to_string(port);
    }
  }
  out += path;
  if (has_query) {
    out += '?';
    out += query;
  }
  if (has_fragment) {
    out += '#';
    out += fragment;
  }
  return out;
}

StatusOr<ParsedUrl> ParseUrl(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty URL");
  for (char c : text) {
    if (static_cast<unsigned char>(c) < 0x21 || c == 0x7f) {
      return Status::InvalidArgument("URL contains whitespace/control byte");
    }
  }

  ParsedUrl url;
  std::string_view rest = text;

  // Scheme: ALPHA *( ALPHA / DIGIT / "+" / "-" / "." ) ":".
  size_t i = 0;
  if (IsSchemeStart(rest[0])) {
    while (i < rest.size() && IsSchemeChar(rest[i])) ++i;
    if (i < rest.size() && rest[i] == ':') {
      url.scheme = AsciiStrToLower(rest.substr(0, i));
      rest = rest.substr(i + 1);
    }
  }

  // Authority.
  if (StartsWith(rest, "//")) {
    rest = rest.substr(2);
    size_t end = rest.size();
    for (size_t j = 0; j < rest.size(); ++j) {
      if (rest[j] == '/' || rest[j] == '?' || rest[j] == '#') {
        end = j;
        break;
      }
    }
    LSWC_RETURN_IF_ERROR(ParseAuthority(rest.substr(0, end), &url));
    rest = rest.substr(end);
  }

  // Path, query, fragment.
  const size_t frag = rest.find('#');
  if (frag != std::string_view::npos) {
    url.has_fragment = true;
    url.fragment = std::string(rest.substr(frag + 1));
    rest = rest.substr(0, frag);
  }
  const size_t q = rest.find('?');
  if (q != std::string_view::npos) {
    url.has_query = true;
    url.query = std::string(rest.substr(q + 1));
    rest = rest.substr(0, q);
  }
  url.path = std::string(rest);
  return url;
}

std::string RemoveDotSegments(std::string_view path) {
  std::string out;
  std::string_view in = path;
  while (!in.empty()) {
    if (StartsWith(in, "../")) {
      in = in.substr(3);
    } else if (StartsWith(in, "./")) {
      in = in.substr(2);
    } else if (StartsWith(in, "/./")) {
      in = in.substr(2);  // "/./x" -> "/x".
    } else if (in == "/.") {
      in = "/";
    } else if (StartsWith(in, "/../") || in == "/..") {
      in = (in == "/..") ? std::string_view("/") : in.substr(3);
      const size_t slash = out.rfind('/');
      out.erase(slash == std::string::npos ? 0 : slash);
    } else if (in == "." || in == "..") {
      in = {};
    } else {
      // Move the first segment (through the next '/') to the output.
      size_t next = in.find('/', in.front() == '/' ? 1 : 0);
      if (next == std::string_view::npos) next = in.size();
      out.append(in.substr(0, next));
      in = in.substr(next);
    }
  }
  return out;
}

StatusOr<ParsedUrl> ResolveUrl(const ParsedUrl& base,
                               std::string_view reference) {
  if (!base.IsAbsolute()) {
    return Status::InvalidArgument("base URL must be absolute");
  }
  if (reference.empty()) {
    // RFC 3986 §5.2.2: an empty reference targets the base itself
    // (without a fragment of its own).
    ParsedUrl out = base;
    out.has_fragment = false;
    out.fragment.clear();
    return out;
  }
  auto ref_or = ParseUrl(reference);
  if (!ref_or.ok()) return ref_or.status();
  const ParsedUrl& ref = *ref_or;

  ParsedUrl out;
  if (ref.IsAbsolute()) {
    out = ref;
    out.path = RemoveDotSegments(out.path);
    return out;
  }
  out.scheme = base.scheme;
  if (ref.has_authority) {
    out.has_authority = true;
    out.host = ref.host;
    out.port = ref.port;
    out.path = RemoveDotSegments(ref.path);
    out.has_query = ref.has_query;
    out.query = ref.query;
  } else {
    out.has_authority = base.has_authority;
    out.host = base.host;
    out.port = base.port;
    if (ref.path.empty()) {
      out.path = base.path;
      out.has_query = ref.has_query ? true : base.has_query;
      out.query = ref.has_query ? ref.query : base.query;
    } else {
      if (ref.path.front() == '/') {
        out.path = RemoveDotSegments(ref.path);
      } else {
        // Merge (RFC 3986 §5.2.3).
        std::string merged;
        if (base.has_authority && base.path.empty()) {
          merged = "/";
          merged += ref.path;
        } else {
          const size_t slash = base.path.rfind('/');
          if (slash != std::string::npos) {
            merged = base.path.substr(0, slash + 1);
          }
          merged += ref.path;
        }
        out.path = RemoveDotSegments(merged);
      }
      out.has_query = ref.has_query;
      out.query = ref.query;
    }
  }
  out.has_fragment = ref.has_fragment;
  out.fragment = ref.fragment;
  return out;
}

namespace {

// Normalizes percent-escapes in one component: decodes escapes of
// unreserved characters, uppercases the hex digits of retained escapes,
// and leaves malformed escapes untouched.
std::string NormalizeEscapes(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size() && IsAsciiHexDigit(s[i + 1]) &&
        IsAsciiHexDigit(s[i + 2])) {
      const int v = HexDigitValue(s[i + 1]) * 16 + HexDigitValue(s[i + 2]);
      const char decoded = static_cast<char>(v);
      if (IsUnreserved(decoded)) {
        out += decoded;
      } else {
        out += '%';
        out += AsciiToUpper(s[i + 1]);
        out += AsciiToUpper(s[i + 2]);
      }
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

void NormalizeUrl(ParsedUrl* url) {
  assert(url != nullptr);
  if (url->port >= 0 && url->port == DefaultPort(url->scheme)) {
    url->port = -1;
  }
  url->path = NormalizeEscapes(RemoveDotSegments(url->path));
  if (url->has_authority && url->path.empty()) url->path += '/';
  if (url->has_query) url->query = NormalizeEscapes(url->query);
  url->has_fragment = false;
  url->fragment.clear();
}

StatusOr<std::string> CanonicalizeUrl(std::string_view text) {
  auto url_or = ParseUrl(text);
  if (!url_or.ok()) return url_or.status();
  if (!url_or->IsAbsolute()) {
    return Status::InvalidArgument("URL is not absolute: " +
                                   std::string(text));
  }
  NormalizeUrl(&url_or.value());
  return url_or->ToString();
}

StatusOr<std::string> CanonicalizeRelative(std::string_view base_text,
                                           std::string_view reference) {
  auto base_or = ParseUrl(base_text);
  if (!base_or.ok()) return base_or.status();
  auto resolved_or = ResolveUrl(*base_or, reference);
  if (!resolved_or.ok()) return resolved_or.status();
  NormalizeUrl(&resolved_or.value());
  return resolved_or->ToString();
}

}  // namespace lswc
