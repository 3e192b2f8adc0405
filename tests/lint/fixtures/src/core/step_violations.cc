// Fixture: seeded regex-in-hot-path and raw-stderr-log violations. The
// path contains src/core, where the per-page step runs once per page in
// every mode: it must stay on hand-rolled scanners and log through
// SOMR_LOG.
#include <cstdio>
#include <regex>

bool LooksLikeRevisionId(const std::string& text) {
  static const std::regex kId("[0-9]+");
  if (!std::regex_match(text, kId)) {
    std::fprintf(stderr, "bad revision id %s\n", text.c_str());
    return false;
  }
  return true;
}
