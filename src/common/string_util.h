#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/status.h"

namespace somr {

/// Returns `s` without leading/trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Returns a lowercase copy of `s` (ASCII only; bytes >= 0x80 untouched).
std::string AsciiToLower(std::string_view s);

/// Splits `s` on the single character `sep`. Adjacent separators produce
/// empty pieces; an empty input produces one empty piece.
std::vector<std::string_view> SplitString(std::string_view s, char sep);

/// Splits `s` on `sep` and drops pieces that are empty after trimming
/// ASCII whitespace. The returned pieces are trimmed.
std::vector<std::string_view> SplitAndTrim(std::string_view s, char sep);

/// Joins `pieces` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// Replaces every occurrence of `from` (must be non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// True if `s` consists only of ASCII digits (and is non-empty), with an
/// optional leading '-' or '+', optionally one '.' and thousands ','.
/// Used by the subject-column detector to classify numeric-looking cells.
bool LooksNumeric(std::string_view s);

/// Collapses runs of whitespace into single spaces and trims. "a  b\n c"
/// becomes "a b c".
std::string CollapseWhitespace(std::string_view s);

/// True if `a` equals `b` ignoring ASCII case.
bool EqualsIgnoreAsciiCase(std::string_view a, std::string_view b);

/// Parses all of `text` as an integer in `base`: false when it is empty,
/// has bytes after the number, or is out of `Int`'s range.
template <typename Int>
bool ParseInteger(std::string_view text, Int* out, int base = 10) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out, base);
  return ec == std::errc() && ptr == end;
}

/// `s` escaped for the inside of a JSON string literal: '"', '\\', '\n',
/// '\r' and '\t' take their two-character escapes, other bytes below
/// 0x20 become "\u00XX", and every other byte (UTF-8 included) is kept.
std::string JsonEscape(std::string_view s);

/// Reads a whole file into a string sized up front (seek to end, tell,
/// one read) — no stringstream double-buffering, so peak memory is the
/// file size, not 2x. NotFound when the file cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace somr
