// Tests for tools/somr_lint: every seeded fixture must produce its
// rule's finding, the clean/suppressed fixtures must not, and --fix
// must rewrite guard headers into #pragma once form. SOMR_LINT_FIXTURE_DIR
// is injected by CMake and points at tests/lint/fixtures.

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/analysis/passes.h"
#include "lint/lint.h"

namespace somr::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(SOMR_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

LintResult LintFixture(const std::string& name,
                       const LintOptions& options = {}) {
  return LintPaths({FixturePath(name)}, options);
}

size_t CountRule(const LintResult& result, const std::string& rule) {
  return static_cast<size_t>(std::count_if(
      result.diagnostics.begin(), result.diagnostics.end(),
      [&](const Diagnostic& d) { return d.rule == rule; }));
}

std::vector<int> LinesOfRule(const LintResult& result,
                             const std::string& rule) {
  std::vector<int> lines;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.rule == rule) lines.push_back(d.line);
  }
  return lines;
}

TEST(LintFixtureTest, BannedRand) {
  LintResult r = LintFixture("banned_rand.cc");
  EXPECT_EQ(CountRule(r, "banned-rand"), 2u);
  EXPECT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(LinesOfRule(r, "banned-rand"), (std::vector<int>{5, 6}));
}

TEST(LintFixtureTest, BannedStrtok) {
  LintResult r = LintFixture("banned_strtok.cc");
  EXPECT_EQ(CountRule(r, "banned-strtok"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
}

TEST(LintFixtureTest, BannedNewArray) {
  LintResult r = LintFixture("banned_new_array.cc");
  // Only the allocation flags — not make_unique<double[]> and not the
  // `operator new[]` declaration.
  EXPECT_EQ(CountRule(r, "banned-new-array"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(LinesOfRule(r, "banned-new-array"), (std::vector<int>{11}));
}

TEST(LintFixtureTest, RegexInHotPath) {
  LintResult r = LintFixture("src/matching/uses_regex.cc");
  EXPECT_GE(CountRule(r, "regex-in-hot-path"), 2u);  // include + use
  EXPECT_EQ(r.diagnostics.size(), CountRule(r, "regex-in-hot-path"));
}

TEST(LintFixtureTest, RegexInHotPathCoversServe) {
  // The per-request HTTP parse loop makes src/serve a hot path too.
  LintResult r = LintFixture("src/serve/uses_regex.cc");
  EXPECT_GE(CountRule(r, "regex-in-hot-path"), 2u);  // include + use
}

TEST(LintFixtureTest, RegexInHotPathCoversState) {
  // Record-log replay and index parsing run on every checkpoint and
  // fault, so src/state is in scope too.
  LintResult r = LintFixture("src/state/uses_regex.cc");
  EXPECT_GE(CountRule(r, "regex-in-hot-path"), 2u);  // include + use
}

TEST(LintFixtureTest, CoreIsInRegexAndStderrScope) {
  // The per-page step behind batch, ingest and serve lives in src/core.
  LintResult r = LintFixture("src/core/step_violations.cc");
  EXPECT_EQ(CountRule(r, "regex-in-hot-path"), 3u);  // include + 2 uses
  EXPECT_EQ(CountRule(r, "raw-stderr-log"), 1u);
  EXPECT_EQ(LinesOfRule(r, "raw-stderr-log"), (std::vector<int>{11}));
  EXPECT_EQ(r.diagnostics.size(), 4u);
}

TEST(LintFixtureTest, ParsersAreInRegexScope) {
  // Every POST runs the HTML or wikitext parser and extractor, and every
  // dump the xmldump reader: their directories are hot paths too.
  LintResult r = LintFixture("src/html/uses_regex.cc");
  EXPECT_EQ(CountRule(r, "regex-in-hot-path"), 3u);  // include + 2 uses
  EXPECT_EQ(r.diagnostics.size(), 3u);
  const std::string content = ReadFixture("src/html/uses_regex.cc");
  for (const char* path : {"src/extract/uses_regex.cc",
                           "src/wikitext/uses_regex.cc",
                           "src/xmldump/uses_regex.cc"}) {
    EXPECT_EQ(CountRule(LintContent(path, content, {}, nullptr),
                        "regex-in-hot-path"),
              3u)
        << path;
  }
}

TEST(LintFixtureTest, RegexRuleIsPathScoped) {
  // The same content outside src/matching//src/sim is allowed.
  std::string content = ReadFixture("src/matching/uses_regex.cc");
  LintResult r =
      LintContent("src/archive/uses_regex.cc", content, {}, nullptr);
  EXPECT_EQ(CountRule(r, "regex-in-hot-path"), 0u);
}

TEST(LintFixtureTest, RawStderrLog) {
  LintResult r = LintFixture("src/serve/uses_fprintf.cc");
  // The two stderr writes flag; the caller-stream write does not, and
  // the allow-suppressed line is counted under suppressed.
  EXPECT_EQ(CountRule(r, "raw-stderr-log"), 2u);
  EXPECT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(LinesOfRule(r, "raw-stderr-log"), (std::vector<int>{6, 7}));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintFixtureTest, RawStderrLogIsPathScoped) {
  // The same content outside src/serve//src/state is allowed: CLI tools
  // may still print usage errors to stderr directly.
  std::string content = ReadFixture("src/serve/uses_fprintf.cc");
  LintResult r =
      LintContent("tools/uses_fprintf.cc", content, {}, nullptr);
  EXPECT_EQ(CountRule(r, "raw-stderr-log"), 0u);
  LintResult state = LintContent("src/state/uses_fprintf.cc", content, {},
                                 nullptr);
  EXPECT_EQ(CountRule(state, "raw-stderr-log"), 2u);
}

TEST(LintFixtureTest, VolatileSync) {
  LintResult r = LintFixture("volatile_sync.cc");
  EXPECT_EQ(CountRule(r, "volatile-sync"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
}

TEST(LintFixtureTest, MutexInTraceScope) {
  LintResult r = LintFixture("src/parallel/lock_in_trace.cc");
  // Only the lock in the same block as the span flags; Fine() is clean.
  EXPECT_EQ(CountRule(r, "mutex-in-trace-scope"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(LinesOfRule(r, "mutex-in-trace-scope"),
            (std::vector<int>{13}));
}

TEST(LintFixtureTest, PragmaOnceMissing) {
  LintResult guard = LintFixture("missing_pragma.h");
  EXPECT_EQ(CountRule(guard, "pragma-once"), 1u);
  LintResult bare = LintFixture("no_guard.h");
  EXPECT_EQ(CountRule(bare, "pragma-once"), 1u);
}

TEST(LintFixtureTest, UsingNamespaceHeader) {
  LintResult r = LintFixture("using_namespace.h");
  EXPECT_EQ(CountRule(r, "using-namespace-header"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(LinesOfRule(r, "using-namespace-header"),
            (std::vector<int>{8}));
}

TEST(LintFixtureTest, TodoFormat) {
  LintResult r = LintFixture("todo_format.cc");
  // The two bare markers flag; the owner-tagged ones do not.
  EXPECT_EQ(CountRule(r, "todo-format"), 2u);
  EXPECT_EQ(r.diagnostics.size(), 2u);
}

TEST(LintFixtureTest, CleanFileHasNoFindings) {
  LintResult r = LintFixture("clean.cc");
  EXPECT_TRUE(r.diagnostics.empty()) << r.diagnostics[0].rule;
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(LintFixtureTest, SuppressionsSilenceEveryForm) {
  LintResult r = LintFixture("suppressed.cc");
  EXPECT_TRUE(r.diagnostics.empty())
      << r.diagnostics[0].rule << " at line " << r.diagnostics[0].line;
  // 2x rand (same-line + line-above), 2x strtok (file-scoped).
  EXPECT_EQ(r.suppressed, 4u);
}

TEST(LintFixtureTest, SuppressionIsPerRule) {
  // An allow for one rule must not silence another.
  LintResult r = LintContent(
      "x.cc", "int a = rand();  // somr-lint: allow(banned-strtok)\n", {},
      nullptr);
  EXPECT_EQ(CountRule(r, "banned-rand"), 1u);
}

TEST(LintFixtureTest, OnlyRulesFilter) {
  LintOptions options;
  options.only_rules = {"banned-strtok"};
  LintResult r = LintFixture("banned_rand.cc", options);
  EXPECT_TRUE(r.diagnostics.empty());
}

// --fix must rewrite a classic guard to #pragma once without touching
// the body, and the result must re-lint clean.
TEST(LintFixTest, ConvertsClassicGuard) {
  LintOptions options;
  options.fix = true;
  std::string fixed;
  LintResult r = LintContent("missing_pragma.h",
                             ReadFixture("missing_pragma.h"), options,
                             &fixed);
  EXPECT_EQ(r.files_fixed, 1u);
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(fixed.rfind("#pragma once", 0), 0u);
  EXPECT_EQ(fixed.find("#ifndef"), std::string::npos);
  EXPECT_EQ(fixed.find("#endif"), std::string::npos);
  EXPECT_NE(fixed.find("inline int Answer() { return 42; }"),
            std::string::npos);
  LintResult again = LintContent("missing_pragma.h", fixed, {}, nullptr);
  EXPECT_TRUE(again.diagnostics.empty());
}

TEST(LintFixTest, PrependsWhenNoGuard) {
  LintOptions options;
  options.fix = true;
  std::string fixed;
  LintResult r = LintContent("no_guard.h", ReadFixture("no_guard.h"),
                             options, &fixed);
  EXPECT_EQ(r.files_fixed, 1u);
  EXPECT_EQ(fixed.rfind("#pragma once", 0), 0u);
  EXPECT_NE(fixed.find("inline int Unguarded() { return 7; }"),
            std::string::npos);
}

TEST(LintFixTest, FixWithoutFixableFindingIsANoOp) {
  LintOptions options;
  options.fix = true;
  std::string fixed;
  std::string content = ReadFixture("clean.cc");
  LintResult r = LintContent("clean.cc", content, options, &fixed);
  EXPECT_EQ(r.files_fixed, 0u);
  EXPECT_EQ(fixed, content);
}

// SourceFile view construction: the code view blanks comments and
// literal bodies in place, keeping columns aligned with the raw text.
TEST(SourceFileTest, CodeViewBlanksCommentsAndStrings) {
  SourceFile file("x.cc",
                  "int a = 1;  // rand()\n"
                  "const char* s = \"strtok\";\n");
  ASSERT_EQ(file.code_lines().size(), 2u);
  EXPECT_EQ(file.code_lines()[0].substr(0, 10), "int a = 1;");
  EXPECT_EQ(file.code_lines()[0].find("rand"), std::string::npos);
  EXPECT_NE(file.comment_lines()[0].find("rand()"), std::string::npos);
  EXPECT_EQ(file.code_lines()[1].find("strtok"), std::string::npos);
  // Columns stay aligned: the semicolon keeps its raw position.
  EXPECT_EQ(file.code_lines()[1][24], ';');
}

TEST(SourceFileTest, RawStringBodyIsBlanked) {
  SourceFile file("x.cc",
                  "auto s = R\"(rand() and strtok)\";\n"
                  "int keep = 2;\n");
  EXPECT_EQ(file.code_lines()[0].find("rand"), std::string::npos);
  EXPECT_EQ(file.code_lines()[1].substr(0, 13), "int keep = 2;");
}

// ---- analysis passes (lock-discipline / lock-order / coverage) ------

TEST(LintAnalysisTest, GuardedFieldFixture) {
  LintResult r = LintFixture("src/serve/guarded_no_lock.cc");
  EXPECT_EQ(CountRule(r, "lock-discipline"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(LinesOfRule(r, "lock-discipline"), (std::vector<int>{19}));
}

TEST(LintAnalysisTest, LockOrderCycleFixture) {
  LintResult r = LintFixture("src/state/lock_order_cycle.cc");
  EXPECT_EQ(CountRule(r, "lock-order"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
  // The graph carries both edges and the detected cycle.
  EXPECT_EQ(r.lock_graph.edges.size(), 2u);
  ASSERT_EQ(r.lock_graph.cycles.size(), 1u);
}

TEST(LintAnalysisTest, UnannotatedMutexFixture) {
  LintResult r = LintFixture("src/obs/unannotated_mutex.cc");
  EXPECT_EQ(CountRule(r, "annotation-coverage"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 1u);
}

TEST(LintAnalysisTest, NestedScopesCoverInnerAccessOnly) {
  // The inner block's guard ends at its closing brace: the access after
  // it is unprotected.
  LintResult r = LintContent("src/serve/x.cc",
                             "#include <mutex>\n"
                             "class T {\n"
                             " public:\n"
                             "  void F() {\n"
                             "    {\n"
                             "      std::lock_guard<std::mutex> l(mu_);\n"
                             "      v_ = 1;\n"
                             "    }\n"
                             "    v_ = 2;\n"
                             "  }\n"
                             " private:\n"
                             "  std::mutex mu_;\n"
                             "  int v_ SOMR_GUARDED_BY(mu_) = 0;\n"
                             "};\n",
                             {}, nullptr);
  EXPECT_EQ(LinesOfRule(r, "lock-discipline"), (std::vector<int>{9}));
}

TEST(LintAnalysisTest, EarlyUnlockEndsTheScope) {
  LintResult r = LintContent("src/serve/x.cc",
                             "#include <mutex>\n"
                             "class T {\n"
                             " public:\n"
                             "  void F() {\n"
                             "    std::unique_lock<std::mutex> l(mu_);\n"
                             "    v_ = 1;\n"
                             "    l.unlock();\n"
                             "    v_ = 2;\n"
                             "  }\n"
                             " private:\n"
                             "  std::mutex mu_;\n"
                             "  int v_ SOMR_GUARDED_BY(mu_) = 0;\n"
                             "};\n",
                             {}, nullptr);
  EXPECT_EQ(LinesOfRule(r, "lock-discipline"), (std::vector<int>{8}));
}

TEST(LintAnalysisTest, RequiresContractPropagates) {
  // The REQUIRES method may touch the field; the unlocked call site is
  // the violation, and the locked one is fine.
  LintResult r = LintContent("src/serve/x.cc",
                             "#include <mutex>\n"
                             "class T {\n"
                             " public:\n"
                             "  int SumLocked() const SOMR_REQUIRES(mu_) {\n"
                             "    return v_;\n"
                             "  }\n"
                             "  int Good() const {\n"
                             "    std::lock_guard<std::mutex> l(mu_);\n"
                             "    return SumLocked();\n"
                             "  }\n"
                             "  int Bad() const { return SumLocked(); }\n"
                             " private:\n"
                             "  mutable std::mutex mu_;\n"
                             "  int v_ SOMR_GUARDED_BY(mu_) = 0;\n"
                             "};\n",
                             {}, nullptr);
  EXPECT_EQ(LinesOfRule(r, "lock-discipline"), (std::vector<int>{11}));
}

TEST(LintAnalysisTest, ScopedLockGroupAddsNoIntraGroupEdges) {
  // std::scoped_lock(a, b) orders its own acquisitions internally — no
  // lock-order edge (and thus no cycle) between its arguments.
  LintResult r = LintContent("src/serve/x.cc",
                             "#include <mutex>\n"
                             "class T {\n"
                             " public:\n"
                             "  void F() { std::scoped_lock l(mu_a_, mu_b_); }\n"
                             "  void G() { std::scoped_lock l(mu_b_, mu_a_); }\n"
                             " private:\n"
                             "  std::mutex mu_a_;\n"
                             "  std::mutex mu_b_;\n"
                             "};\n",
                             {}, nullptr);
  EXPECT_EQ(CountRule(r, "lock-order"), 0u);
  EXPECT_TRUE(r.lock_graph.edges.empty());
}

TEST(LintAnalysisTest, CoverageExemptions) {
  // const / static / atomic / cv / mutex / thread members and
  // SOMR_NOT_GUARDED are all exempt from coverage.
  LintResult r = LintContent(
      "src/obs/x.cc",
      "#include <atomic>\n"
      "#include <condition_variable>\n"
      "#include <mutex>\n"
      "class T {\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  std::condition_variable cv_;\n"
      "  std::atomic<int> counter_{0};\n"
      "  const int limit_ = 8;\n"
      "  static int shared_;\n"
      "  int scratch_ SOMR_NOT_GUARDED = 0;\n"
      "  int guarded_ SOMR_GUARDED_BY(mu_) = 0;\n"
      "};\n",
      {}, nullptr);
  EXPECT_EQ(CountRule(r, "annotation-coverage"), 0u);
}

TEST(LintAnalysisTest, AnnotationNamingUnknownMutexFlags) {
  LintResult r = LintContent("src/obs/x.cc",
                             "#include <mutex>\n"
                             "class T {\n"
                             " private:\n"
                             "  std::mutex mu_;\n"
                             "  int v_ SOMR_GUARDED_BY(other_mu_) = 0;\n"
                             "};\n",
                             {}, nullptr);
  EXPECT_EQ(CountRule(r, "annotation-coverage"), 1u);
}

TEST(LintAnalysisTest, DotRenderingMarksCycleEdgesRed) {
  LintResult r = LintFixture("src/state/lock_order_cycle.cc");
  const std::string dot = analysis::RenderLockGraphDot(r.lock_graph);
  EXPECT_EQ(dot.rfind("digraph somr_lock_order {", 0), 0u);
  EXPECT_NE(dot.find("state::Ledger::mu_a_"), std::string::npos);
  EXPECT_NE(dot.find("state::Ledger::mu_b_"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(LintAnalysisTest, SuppressionSilencesAnalysisFinding) {
  LintResult r = LintContent("src/serve/x.cc",
                             "#include <mutex>\n"
                             "class T {\n"
                             " public:\n"
                             "  // somr-lint: allow(lock-discipline)\n"
                             "  int F() const { return v_; }\n"
                             " private:\n"
                             "  mutable std::mutex mu_;\n"
                             "  int v_ SOMR_GUARDED_BY(mu_) = 0;\n"
                             "};\n",
                             {}, nullptr);
  EXPECT_EQ(CountRule(r, "lock-discipline"), 0u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintJsonTest, RoundTrip) {
  LintResult r = LintFixture("src/serve/guarded_no_lock.cc");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  const std::string json = RenderDiagnosticsJson(r);
  LintResult parsed;
  ASSERT_TRUE(ParseDiagnosticsJson(json, &parsed));
  ASSERT_EQ(parsed.diagnostics.size(), r.diagnostics.size());
  EXPECT_EQ(parsed.diagnostics[0].rule, r.diagnostics[0].rule);
  EXPECT_EQ(parsed.diagnostics[0].file, r.diagnostics[0].file);
  EXPECT_EQ(parsed.diagnostics[0].line, r.diagnostics[0].line);
  EXPECT_EQ(parsed.diagnostics[0].message, r.diagnostics[0].message);
  EXPECT_EQ(parsed.diagnostics[0].fixable, r.diagnostics[0].fixable);
  EXPECT_EQ(parsed.files_scanned, r.files_scanned);
  EXPECT_EQ(parsed.files_fixed, r.files_fixed);
  EXPECT_EQ(parsed.suppressed, r.suppressed);
}

TEST(LintJsonTest, EscapesSpecialCharacters) {
  LintResult r;
  r.diagnostics.push_back(
      {"a\"b\\c.cc", 3, "rule", "tab\there\nnewline", false});
  const std::string json = RenderDiagnosticsJson(r);
  LintResult parsed;
  ASSERT_TRUE(ParseDiagnosticsJson(json, &parsed));
  ASSERT_EQ(parsed.diagnostics.size(), 1u);
  EXPECT_EQ(parsed.diagnostics[0].file, "a\"b\\c.cc");
  EXPECT_EQ(parsed.diagnostics[0].message, "tab\there\nnewline");
}

TEST(LintJsonTest, RejectsMalformedInput) {
  LintResult parsed;
  EXPECT_FALSE(ParseDiagnosticsJson("", &parsed));
  EXPECT_FALSE(ParseDiagnosticsJson("[]", &parsed));
  EXPECT_FALSE(ParseDiagnosticsJson("{\"findings\": [", &parsed));
}

TEST(SourceFileTest, BlockCommentSpanningLines) {
  SourceFile file("x.cc", "/* rand()\n   strtok */ int a;\n");
  EXPECT_EQ(file.code_lines()[0].find("rand"), std::string::npos);
  EXPECT_EQ(file.code_lines()[1].find("strtok"), std::string::npos);
  EXPECT_NE(file.code_lines()[1].find("int a;"), std::string::npos);
}

}  // namespace
}  // namespace somr::lint
