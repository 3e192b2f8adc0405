#pragma once

// The one writer of bench sections into the JSON report
// (BENCH_matching.json). Header-only and standard-library-only, so that
// bench_lint_analysis, which links no somr library, uses it too.
//
//   somr::bench::MergeSection(path, "ns_per_op", "\"state_io\": {...}");
//   somr::bench::MergeSection(path, "", "\"parallel_scaling\": {...}");

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace somr::bench {

namespace json {

constexpr size_t kNone = std::string::npos;

inline size_t SkipSpace(const std::string& text, size_t at) {
  while (at < text.size() &&
         std::isspace(static_cast<unsigned char>(text[at]))) {
    ++at;
  }
  return at;
}

/// Index just past the string literal whose '"' is at `at`.
inline size_t SkipString(const std::string& text, size_t at) {
  for (size_t i = at + 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i + 1;
    }
  }
  return kNone;
}

/// Index just past the value that starts at `at`: a string, an object or
/// array (nesting and strings inside honoured), or a scalar.
inline size_t SkipValue(const std::string& text, size_t at) {
  if (at >= text.size()) return kNone;
  if (text[at] == '"') return SkipString(text, at);
  if (text[at] == '{' || text[at] == '[') {
    int depth = 0;
    for (size_t i = at; i < text.size(); ++i) {
      if (text[i] == '"') {
        i = SkipString(text, i);
        if (i == kNone) return kNone;
        --i;
      } else if (text[i] == '{' || text[i] == '[') {
        ++depth;
      } else if ((text[i] == '}' || text[i] == ']') && --depth == 0) {
        return i + 1;
      }
    }
    return kNone;
  }
  size_t end = at;
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         text[end] != ']' &&
         !std::isspace(static_cast<unsigned char>(text[end]))) {
    ++end;
  }
  return end == at ? kNone : end;
}

/// One `"key": value` pair of an object: [begin, end) spans both.
struct Member {
  std::string key;
  size_t begin = 0;
  size_t value = 0;
  size_t end = 0;
};

/// The members of the object whose '{' is at `open`, and its '}' in
/// `close`; false when the object is malformed.
inline bool Members(const std::string& text, size_t open,
                    std::vector<Member>* members, size_t* close) {
  size_t at = SkipSpace(text, open + 1);
  if (at < text.size() && text[at] == '}') {
    *close = at;
    return true;
  }
  while (at < text.size() && text[at] == '"') {
    Member member;
    member.begin = at;
    const size_t key_end = SkipString(text, at);
    if (key_end == kNone) return false;
    member.key = text.substr(at + 1, key_end - at - 2);
    at = SkipSpace(text, key_end);
    if (at >= text.size() || text[at] != ':') return false;
    member.value = SkipSpace(text, at + 1);
    member.end = SkipValue(text, member.value);
    if (member.end == kNone) return false;
    members->push_back(member);
    at = SkipSpace(text, member.end);
    if (at < text.size() && text[at] == '}') {
      *close = at;
      return true;
    }
    if (at >= text.size() || text[at] != ',') return false;
    at = SkipSpace(text, at + 1);
  }
  return false;
}

/// Adds `member` as the last member of the object at [open, close],
/// whose members sit `indent` spaces in.
inline void AppendMember(std::string* text, size_t open, size_t close,
                         size_t indent, const std::string& member) {
  size_t last = close;
  while (last > open + 1 &&
         std::isspace(static_cast<unsigned char>((*text)[last - 1]))) {
    --last;
  }
  if (last == open + 1) {  // empty object
    text->replace(open + 1, close - open - 1,
                  "\n" + std::string(indent, ' ') + member + "\n" +
                      std::string(indent - 2, ' '));
  } else {
    text->insert(last, ",\n" + std::string(indent, ' ') + member);
  }
}

}  // namespace json

/// Writes `member`, one rendered `"name": value` pair, into the JSON
/// report at `path`: inside the top-level object named `parent`, or at
/// the top level when `parent` is empty. A section of the same name is
/// replaced where it stands, so the report keeps its keys and their
/// order; a new one becomes the last member of its object (and `parent`
/// is created when missing). A missing or empty report is written fresh;
/// one that is not a JSON object is left alone. Returns false, after
/// saying why on stderr, when the report cannot be read or written.
inline bool MergeSection(const std::string& path, std::string_view parent,
                         const std::string& member) {
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  if (json::SkipSpace(text, 0) == text.size()) text = "{\n}\n";
  const size_t name_end = member.empty() || member[0] != '"'
                              ? std::string::npos
                              : json::SkipString(member, 0);
  size_t open = json::SkipSpace(text, 0);
  size_t close = 0;
  std::vector<json::Member> members;
  if (name_end == std::string::npos || text[open] != '{' ||
      !json::Members(text, open, &members, &close)) {
    std::fprintf(stderr, "%s: not a JSON object, or a bad section\n",
                 path.c_str());
    return false;
  }
  const std::string name = member.substr(1, name_end - 2);
  auto write = [&path, &text] {
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();
    if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return static_cast<bool>(out);
  };

  size_t indent = 2;
  if (!parent.empty()) {
    const json::Member* found = nullptr;
    for (const json::Member& m : members) {
      if (m.key == parent) found = &m;
    }
    if (found == nullptr) {
      json::AppendMember(&text, open, close, indent,
                         "\"" + std::string(parent) + "\": {\n    " +
                             member + "\n  }");
      return write();
    }
    open = found->value;
    members.clear();
    if (text[open] != '{' || !json::Members(text, open, &members, &close)) {
      std::fprintf(stderr, "%s: \"%s\" is not an object\n", path.c_str(),
                   std::string(parent).c_str());
      return false;
    }
    indent = 4;
  }
  for (const json::Member& m : members) {
    if (m.key == name) {
      text.replace(m.begin, m.end - m.begin, member);
      return write();
    }
  }
  json::AppendMember(&text, open, close, indent, member);
  return write();
}

}  // namespace somr::bench
