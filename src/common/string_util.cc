#include "common/string_util.h"

#include <cctype>
#include <cstdio>
#include <fstream>

namespace somr {

namespace {
bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsAsciiSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::vector<std::string_view> SplitString(std::string_view s, char sep) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.push_back(s.substr(start));
      break;
    }
    pieces.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::vector<std::string_view> SplitAndTrim(std::string_view s, char sep) {
  std::vector<std::string_view> pieces;
  for (std::string_view piece : SplitString(s, sep)) {
    std::string_view trimmed = StripAsciiWhitespace(piece);
    if (!trimmed.empty()) pieces.push_back(trimmed);
  }
  return pieces;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

bool LooksNumeric(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') i = 1;
  bool saw_digit = false;
  bool saw_dot = false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (c >= '0' && c <= '9') {
      saw_digit = true;
    } else if (c == '.' && !saw_dot) {
      saw_dot = true;
    } else if (c == ',') {
      // thousands separator; ignore
    } else {
      return false;
    }
  }
  return saw_digit;
}

std::string CollapseWhitespace(std::string_view s) {
  // Trim first, then check whether the interior is already collapsed —
  // most strings are, and then a single bulk copy suffices.
  size_t begin = 0, end = s.size();
  while (begin < end && IsAsciiSpace(s[begin])) ++begin;
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  std::string_view t = s.substr(begin, end - begin);
  bool clean = true;
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsAsciiSpace(t[i]) &&
        (t[i] != ' ' || (i + 1 < t.size() && IsAsciiSpace(t[i + 1])))) {
      clean = false;
      break;
    }
  }
  if (clean) return std::string(t);
  std::string out;
  out.reserve(t.size());
  size_t i = 0;
  while (i < t.size()) {
    if (IsAsciiSpace(t[i])) {
      out.push_back(' ');
      do { ++i; } while (i < t.size() && IsAsciiSpace(t[i]));
    } else {
      size_t j = i;
      while (j < t.size() && !IsAsciiSpace(t[j])) ++j;
      out.append(t.substr(i, j - i));
      i = j;
    }
  }
  return out;
}

bool EqualsIgnoreAsciiCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + path);
  std::streamsize size = in.tellg();
  if (size < 0) return Status::Internal("cannot size " + path);
  std::string content(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(content.data(), size);
  if (in.gcount() != size) {
    return Status::Internal("short read on " + path);
  }
  return content;
}

}  // namespace somr
