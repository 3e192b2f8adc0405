#include "html/entities.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace somr::html {

namespace {

struct NamedEntity {
  std::string_view name;
  std::string_view utf8;
};

// Common subset, sorted alphabetically for readability (lookup is linear;
// the table is small and entity decoding is not on the matcher's hot path).
constexpr NamedEntity kNamedEntities[] = {
    {"aacute", "\xC3\xA1"}, {"agrave", "\xC3\xA0"}, {"amp", "&"},
    {"apos", "'"},          {"auml", "\xC3\xA4"},   {"ccedil", "\xC3\xA7"},
    {"copy", "\xC2\xA9"},   {"dagger", "\xE2\x80\xA0"},
    {"deg", "\xC2\xB0"},    {"eacute", "\xC3\xA9"}, {"egrave", "\xC3\xA8"},
    {"euro", "\xE2\x82\xAC"}, {"frac12", "\xC2\xBD"}, {"gt", ">"},
    {"hellip", "\xE2\x80\xA6"}, {"iacute", "\xC3\xAD"},
    {"laquo", "\xC2\xAB"},  {"ldquo", "\xE2\x80\x9C"}, {"lt", "<"},
    {"mdash", "\xE2\x80\x94"}, {"middot", "\xC2\xB7"},
    {"minus", "\xE2\x88\x92"}, {"nbsp", "\xC2\xA0"},
    {"ndash", "\xE2\x80\x93"}, {"ntilde", "\xC3\xB1"},
    {"oacute", "\xC3\xB3"}, {"ouml", "\xC3\xB6"},
    {"plusmn", "\xC2\xB1"}, {"pound", "\xC2\xA3"}, {"quot", "\""},
    {"raquo", "\xC2\xBB"},  {"rdquo", "\xE2\x80\x9D"},
    {"rsquo", "\xE2\x80\x99"}, {"sect", "\xC2\xA7"},
    {"szlig", "\xC3\x9F"},  {"times", "\xC3\x97"}, {"uacute", "\xC3\xBA"},
    {"uuml", "\xC3\xBC"},
};

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

uint32_t HexValue(char c) {
  if (c >= '0' && c <= '9') return static_cast<uint32_t>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<uint32_t>(c - 'a' + 10);
  return static_cast<uint32_t>(c - 'A' + 10);
}

}  // namespace

void AppendUtf8(uint32_t cp, std::string& out) {
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) cp = 0xFFFD;
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      // Copy the run up to the next reference in one append.
      const size_t amp = std::min(s.find('&', i), s.size());
      out.append(s.substr(i, amp - i));
      i = amp;
      continue;
    }
    // Limit reference length (so the search for ';' stays local); an
    // unterminated '&' is literal text.
    size_t semi = s.substr(i + 1, 10).find(';');
    if (semi != std::string_view::npos) semi += i + 1;
    if (semi == std::string_view::npos) {
      out.push_back('&');
      ++i;
      continue;
    }
    std::string_view body = s.substr(i + 1, semi - i - 1);
    if (!body.empty() && body[0] == '#') {
      // Numeric reference.
      uint32_t cp = 0;
      bool valid = false;
      if (body.size() >= 2 && (body[1] == 'x' || body[1] == 'X')) {
        valid = body.size() > 2;
        for (size_t j = 2; j < body.size() && valid; ++j) {
          if (!IsHexDigit(body[j])) {
            valid = false;
          } else {
            cp = cp * 16 + HexValue(body[j]);
          }
        }
      } else {
        valid = body.size() > 1;
        for (size_t j = 1; j < body.size() && valid; ++j) {
          if (body[j] < '0' || body[j] > '9') {
            valid = false;
          } else {
            cp = cp * 10 + static_cast<uint32_t>(body[j] - '0');
          }
        }
      }
      if (valid) {
        AppendUtf8(cp, out);
        i = semi + 1;
        continue;
      }
    } else {
      bool found = false;
      for (const NamedEntity& e : kNamedEntities) {
        if (e.name == body) {
          out.append(e.utf8);
          found = true;
          break;
        }
      }
      if (found) {
        i = semi + 1;
        continue;
      }
    }
    out.push_back('&');
    ++i;
  }
  return out;
}

std::string EscapeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out.append("&amp;");
        break;
      case '<':
        out.append("&lt;");
        break;
      case '>':
        out.append("&gt;");
        break;
      case '"':
        out.append("&quot;");
        break;
      case '\'':
        out.append("&apos;");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace somr::html
