// Fixture: seeded regex-in-hot-path violations (include + use). The
// path contains src/html, whose parser runs on every crawl capture a
// POST brings — the parsers stay on hand-rolled scanners.
#include <regex>

bool LooksLikeTag(const std::string& text) {
  static const std::regex kTag("<[A-Za-z][A-Za-z0-9]*[^>]*>");
  return std::regex_search(text, kTag);
}
