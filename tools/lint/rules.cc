#include <algorithm>
#include <cctype>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace somr::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Positions of `word` in `line` with identifier boundaries on both
/// sides.
std::vector<size_t> FindWord(const std::string& line,
                             const std::string& word) {
  std::vector<size_t> positions;
  size_t pos = line.find(word);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) positions.push_back(pos);
    pos = line.find(word, pos + 1);
  }
  return positions;
}

bool PathContains(const SourceFile& file, const char* needle) {
  return file.path().find(needle) != std::string::npos;
}

/// First non-space content of a code line, or empty.
std::string_view Stripped(const std::string& line) {
  size_t begin = line.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  size_t end = line.find_last_not_of(" \t");
  return std::string_view(line).substr(begin, end - begin + 1);
}

// ---------------------------------------------------------------------------
// banned-rand

void CheckBannedRand(const SourceFile& file, std::vector<Diagnostic>* out) {
  for (size_t l = 0; l < file.code_lines().size(); ++l) {
    const std::string& line = file.code_lines()[l];
    for (const char* fn : {"rand", "srand"}) {
      for (size_t pos : FindWord(line, fn)) {
        size_t after = line.find_first_not_of(' ', pos + std::string(fn).size());
        if (after != std::string::npos && line[after] == '(') {
          out->push_back({file.path(), static_cast<int>(l) + 1,
                          "banned-rand",
                          "libc rand()/srand() is not seedable per run and "
                          "not thread-safe; use somr::Rng (common/rng.h)",
                          false});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// banned-strtok

void CheckBannedStrtok(const SourceFile& file,
                       std::vector<Diagnostic>* out) {
  for (size_t l = 0; l < file.code_lines().size(); ++l) {
    if (!FindWord(file.code_lines()[l], "strtok").empty()) {
      out->push_back({file.path(), static_cast<int>(l) + 1,
                      "banned-strtok",
                      "strtok mutates its input and keeps hidden global "
                      "state; use common/string_util.h split helpers",
                      false});
    }
  }
}

// ---------------------------------------------------------------------------
// banned-new-array

void CheckBannedNewArray(const SourceFile& file,
                         std::vector<Diagnostic>* out) {
  for (size_t l = 0; l < file.code_lines().size(); ++l) {
    const std::string& line = file.code_lines()[l];
    for (size_t pos : FindWord(line, "new")) {
      // `operator new[]` overloads are declarations, not allocations.
      size_t before = line.find_last_not_of(' ', pos == 0 ? 0 : pos - 1);
      if (before != std::string::npos && before >= 7 &&
          line.compare(before - 7, 8, "operator") == 0) {
        continue;
      }
      // Skip over the type name (identifiers, ::, template args,
      // pointers, spaces) and flag when the next token opens an array
      // bound. `std::make_unique<T[]>` never matches: no `new` token.
      size_t i = pos + 3;
      int angle_depth = 0;
      while (i < line.size()) {
        const char c = line[i];
        if (c == '<') ++angle_depth;
        if (c == '>') --angle_depth;
        if (IsIdentChar(c) || c == ':' || c == '<' || c == '>' ||
            c == ',' || c == '*' || c == '&' || c == ' ' ||
            (angle_depth > 0)) {
          ++i;
          continue;
        }
        break;
      }
      if (i < line.size() && line[i] == '[') {
        out->push_back({file.path(), static_cast<int>(l) + 1,
                        "banned-new-array",
                        "raw new[] has no owner; use std::vector or "
                        "std::make_unique<T[]>",
                        false});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// regex-in-hot-path

void CheckRegexInHotPath(const SourceFile& file,
                         std::vector<Diagnostic>* out) {
  static constexpr const char* kHotPaths[] = {
      "src/matching", "src/sim",     "src/retrieval", "src/serve",
      "src/state",    "src/core",    "src/html",      "src/extract",
      "src/wikitext", "src/xmldump"};
  if (std::none_of(std::begin(kHotPaths), std::end(kHotPaths),
                   [&file](const char* dir) {
                     return PathContains(file, dir);
                   })) {
    return;
  }
  for (size_t l = 0; l < file.code_lines().size(); ++l) {
    const std::string& line = file.code_lines()[l];
    const std::string_view stripped = Stripped(line);
    const bool includes_regex =
        stripped.rfind("#", 0) == 0 &&
        stripped.find("include") != std::string_view::npos &&
        stripped.find("<regex>") != std::string_view::npos;
    if (includes_regex || line.find("std::regex") != std::string::npos) {
      out->push_back({file.path(), static_cast<int>(l) + 1,
                      "regex-in-hot-path",
                      "std::regex allocates and backtracks; matching, "
                      "parsing and serving hot paths must use hand-rolled "
                      "scanners",
                      false});
    }
  }
}

// ---------------------------------------------------------------------------
// raw-stderr-log

void CheckRawStderrLog(const SourceFile& file,
                       std::vector<Diagnostic>* out) {
  if (!PathContains(file, "src/serve") && !PathContains(file, "src/state") &&
      !PathContains(file, "src/core")) {
    return;
  }
  for (size_t l = 0; l < file.code_lines().size(); ++l) {
    const std::string& line = file.code_lines()[l];
    for (size_t pos : FindWord(line, "fprintf")) {
      // Flag only writes to stderr: fprintf(stderr, ...). Other streams
      // (files opened by the code) are legitimate I/O, not logging.
      size_t open = line.find_first_not_of(' ', pos + 7);
      if (open == std::string::npos || line[open] != '(') continue;
      size_t arg = line.find_first_not_of(' ', open + 1);
      if (arg != std::string::npos &&
          line.compare(arg, 6, "stderr") == 0) {
        out->push_back({file.path(), static_cast<int>(l) + 1,
                        "raw-stderr-log",
                        "raw fprintf(stderr, ...) bypasses the structured "
                        "log (no level, rate limit, or trace id); use "
                        "SOMR_LOG(...) from obs/log.h",
                        false});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// volatile-sync

void CheckVolatileSync(const SourceFile& file,
                       std::vector<Diagnostic>* out) {
  for (size_t l = 0; l < file.code_lines().size(); ++l) {
    if (!FindWord(file.code_lines()[l], "volatile").empty()) {
      out->push_back({file.path(), static_cast<int>(l) + 1,
                      "volatile-sync",
                      "volatile is not a synchronization primitive; use "
                      "std::atomic with explicit memory order",
                      false});
    }
  }
}

// ---------------------------------------------------------------------------
// mutex-in-trace-scope

void CheckMutexInTraceScope(const SourceFile& file,
                            std::vector<Diagnostic>* out) {
  if (!PathContains(file, "src/parallel")) return;
  const std::vector<std::string>& code = file.code_lines();

  // Flatten for brace scanning; remember each character's line.
  std::string flat;
  std::vector<int> line_of;
  for (size_t l = 0; l < code.size(); ++l) {
    flat += code[l];
    flat += '\n';
    line_of.insert(line_of.end(), code[l].size() + 1,
                   static_cast<int>(l) + 1);
  }

  size_t macro = flat.find("SOMR_TRACE_SCOPE");
  while (macro != std::string::npos) {
    // Depth at the macro site.
    int depth = 0;
    for (size_t i = 0; i < macro; ++i) {
      if (flat[i] == '{') ++depth;
      if (flat[i] == '}') --depth;
    }
    // The span lives until the enclosing block closes.
    int cur = depth;
    size_t i = macro;
    while (i < flat.size()) {
      if (flat[i] == '{') ++cur;
      if (flat[i] == '}') {
        --cur;
        if (cur < depth) break;
      }
      ++i;
    }
    const std::string scope = flat.substr(macro, i - macro);
    for (const char* token :
         {"std::lock_guard", "std::unique_lock", "std::scoped_lock",
          ".lock()", "->lock()"}) {
      size_t hit = scope.find(token);
      while (hit != std::string::npos) {
        out->push_back(
            {file.path(), line_of[macro + hit], "mutex-in-trace-scope",
             "blocking on a std::mutex inside a SOMR_TRACE_SCOPE body "
             "charges lock wait to the traced span and can invert "
             "scheduling in the executor; take the lock outside the "
             "traced region",
             false});
        hit = scope.find(token, hit + 1);
      }
    }
    macro = flat.find("SOMR_TRACE_SCOPE", macro + 1);
  }
}

// ---------------------------------------------------------------------------
// pragma-once

bool HasPragmaOnce(const SourceFile& file) {
  for (const std::string& line : file.code_lines()) {
    std::string_view s = Stripped(line);
    if (s.rfind("#", 0) == 0 &&
        s.find("pragma") != std::string_view::npos &&
        s.find("once") != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

void CheckPragmaOnce(const SourceFile& file, std::vector<Diagnostic>* out) {
  if (!file.is_header()) return;
  if (HasPragmaOnce(file)) return;
  out->push_back({file.path(), 1, "pragma-once",
                  "headers use #pragma once (classic guards are "
                  "converted mechanically by --fix)",
                  true});
}

/// Extracts the identifier after `#ifndef` / `#define` on a code line,
/// or empty when the line is not that directive.
std::string DirectiveIdent(const std::string& code_line,
                           const char* directive) {
  std::string_view s = Stripped(code_line);
  if (s.rfind("#", 0) != 0) return "";
  s.remove_prefix(1);
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  const std::string_view d(directive);
  if (s.rfind(d, 0) != 0) return "";
  s.remove_prefix(d.size());
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  size_t end = 0;
  while (end < s.size() && IsIdentChar(s[end])) ++end;
  return std::string(s.substr(0, end));
}

std::optional<std::string> FixPragmaOnce(const SourceFile& file) {
  if (!file.is_header() || HasPragmaOnce(file)) return std::nullopt;
  const std::vector<std::string>& lines = file.lines();
  const std::vector<std::string>& code = file.code_lines();

  // Find a classic include guard: the first two directive lines are
  // `#ifndef X` / `#define X` and the last directive line is `#endif`.
  int ifndef_line = -1;
  std::string guard;
  for (size_t l = 0; l < code.size(); ++l) {
    if (Stripped(code[l]).empty()) continue;
    guard = DirectiveIdent(code[l], "ifndef");
    ifndef_line = static_cast<int>(l);
    break;
  }
  std::vector<std::string> fixed;
  if (ifndef_line >= 0 && !guard.empty() &&
      static_cast<size_t>(ifndef_line) + 1 < code.size() &&
      DirectiveIdent(code[static_cast<size_t>(ifndef_line) + 1],
                     "define") == guard) {
    // Locate the final #endif (last non-blank code line).
    int endif_line = -1;
    for (size_t l = code.size(); l-- > 0;) {
      if (Stripped(code[l]).empty()) continue;
      if (Stripped(code[l]).rfind("#endif", 0) == 0) {
        endif_line = static_cast<int>(l);
      }
      break;
    }
    if (endif_line < 0) return std::nullopt;  // unbalanced; leave alone
    for (size_t l = 0; l < lines.size(); ++l) {
      if (static_cast<int>(l) == ifndef_line) {
        fixed.push_back("#pragma once");
        continue;
      }
      if (static_cast<int>(l) == ifndef_line + 1) continue;  // #define
      if (static_cast<int>(l) == endif_line) continue;
      fixed.push_back(lines[l]);
    }
    // Converting drops the guard's closing line; trim any blank run it
    // leaves at the end of the file.
    while (!fixed.empty() && Stripped(fixed.back()).empty()) {
      fixed.pop_back();
    }
  } else {
    // No guard at all: prepend the pragma.
    fixed.push_back("#pragma once");
    fixed.push_back("");
    fixed.insert(fixed.end(), lines.begin(), lines.end());
  }
  std::string out;
  for (const std::string& line : fixed) {
    out += line;
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// using-namespace-header

void CheckUsingNamespaceHeader(const SourceFile& file,
                               std::vector<Diagnostic>* out) {
  if (!file.is_header()) return;
  for (size_t l = 0; l < file.code_lines().size(); ++l) {
    const std::string& line = file.code_lines()[l];
    if (!FindWord(line, "using").empty() &&
        !FindWord(line, "namespace").empty() &&
        line.find("using") < line.find("namespace")) {
      out->push_back({file.path(), static_cast<int>(l) + 1,
                      "using-namespace-header",
                      "`using namespace` in a header leaks into every "
                      "includer; qualify names or alias them",
                      false});
    }
  }
}

// ---------------------------------------------------------------------------
// todo-format

void CheckTodoFormat(const SourceFile& file, std::vector<Diagnostic>* out) {
  for (size_t l = 0; l < file.comment_lines().size(); ++l) {
    const std::string& comment = file.comment_lines()[l];
    for (const char* marker : {"TODO", "FIXME"}) {
      for (size_t pos : FindWord(comment, marker)) {
        // Required shape: TODO(owner): ...
        size_t i = pos + std::string(marker).size();
        bool ok = false;
        if (i < comment.size() && comment[i] == '(') {
          size_t close = comment.find(')', i + 1);
          if (close != std::string::npos && close > i + 1 &&
              close + 1 < comment.size() && comment[close + 1] == ':') {
            ok = true;
          }
        }
        if (!ok) {
          out->push_back({file.path(), static_cast<int>(l) + 1,
                          "todo-format",
                          std::string(marker) +
                              " comments need an owner: `" + marker +
                              "(name): ...`",
                          false});
        }
      }
    }
  }
}

}  // namespace

const std::vector<Rule>& Rules() {
  static const std::vector<Rule>* rules = new std::vector<Rule>{
      {"banned-rand",
       "libc rand()/srand() calls (use somr::Rng, common/rng.h)",
       CheckBannedRand, nullptr},
      {"banned-strtok",
       "strtok (hidden global state; use string_util split helpers)",
       CheckBannedStrtok, nullptr},
      {"banned-new-array",
       "raw new[] expressions (use std::vector / make_unique<T[]>)",
       CheckBannedNewArray, nullptr},
      {"regex-in-hot-path",
       "std::regex or <regex> under src/matching, src/sim, src/retrieval, "
       "src/serve, src/state, src/core, or the parsers (src/html, "
       "src/extract, src/wikitext, src/xmldump)",
       CheckRegexInHotPath, nullptr},
      {"raw-stderr-log",
       "fprintf(stderr, ...) under src/serve, src/state or src/core (use "
       "SOMR_LOG from obs/log.h)",
       CheckRawStderrLog, nullptr},
      {"volatile-sync",
       "volatile used where std::atomic belongs",
       CheckVolatileSync, nullptr},
      {"mutex-in-trace-scope",
       "std::mutex blocking inside SOMR_TRACE_SCOPE bodies in "
       "src/parallel",
       CheckMutexInTraceScope, nullptr},
      {"pragma-once",
       "headers must use #pragma once (--fix converts classic guards)",
       CheckPragmaOnce, FixPragmaOnce},
      {"using-namespace-header",
       "`using namespace` in headers",
       CheckUsingNamespaceHeader, nullptr},
      {"todo-format",
       "TODO/FIXME comments without an owner (`TODO(name): ...`)",
       CheckTodoFormat, nullptr},
  };
  return *rules;
}

}  // namespace somr::lint
