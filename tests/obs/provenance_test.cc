#include "obs/provenance.h"

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "matching/matcher.h"
#include "xmldump/dump.h"

namespace somr::obs {
namespace {

using extract::ObjectInstance;
using extract::ObjectType;

ObjectInstance Table(std::initializer_list<const char*> rows) {
  ObjectInstance obj;
  obj.type = ObjectType::kTable;
  for (const char* row : rows) {
    std::vector<std::string> cells;
    std::string current;
    for (const char* p = row;; ++p) {
      if (*p == ' ' || *p == '\0') {
        if (!current.empty()) cells.push_back(std::move(current));
        current.clear();
        if (*p == '\0') break;
      } else {
        current.push_back(*p);
      }
    }
    obj.rows.push_back(std::move(cells));
  }
  return obj;
}

std::vector<ObjectInstance> Revision(std::vector<ObjectInstance> objs) {
  for (size_t i = 0; i < objs.size(); ++i) {
    objs[i].position = static_cast<int>(i);
  }
  return objs;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Pulls `"key": <raw value>` out of a flat one-line JSON object.
std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  size_t end = at;
  if (line[at] == '"') {
    end = line.find('"', at + 1);
    return line.substr(at + 1, end - at - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(at, end - at);
}

TEST(ProvenanceTest, KindNames) {
  EXPECT_STREQ(MatchDecisionKindName(MatchDecision::Kind::kMatch), "match");
  EXPECT_STREQ(MatchDecisionKindName(MatchDecision::Kind::kReject),
               "reject");
  EXPECT_STREQ(MatchDecisionKindName(MatchDecision::Kind::kNewObject),
               "new_object");
  EXPECT_STREQ(MatchDecisionKindName(MatchDecision::Kind::kStep), "step");
}

TEST(ProvenanceTest, JsonEscapesPageTitles) {
  MatchDecision d;
  d.kind = MatchDecision::Kind::kNewObject;
  d.page = "A \"quoted\"\ttitle\n";
  std::string json = MatchDecisionToJson(d);
  EXPECT_NE(json.find("A \\\"quoted\\\"\\ttitle\\n"), std::string::npos)
      << json;
}

TEST(ProvenanceTest, MatcherEmitsOneMatchPerIdentityEdge) {
  // Golden two-revision page: two stable tables, matched once each at
  // revision 1, so the identity graph has exactly 2 edges.
  matching::TemporalMatcher matcher(ObjectType::kTable);
  std::ostringstream out;
  JsonlProvenanceWriter writer(out);
  matcher.SetProvenanceSink(&writer);

  ObjectInstance a = Table({"alpha beta gamma", "one two three"});
  ObjectInstance b = Table({"delta epsilon zeta", "four five six"});
  matcher.ProcessRevision(0, Revision({a, b}));
  matcher.ProcessRevision(1, Revision({a, b}));

  const size_t edges = matcher.graph().VersionCount() -
                       matcher.graph().ObjectCount();
  EXPECT_EQ(edges, 2u);

  std::map<std::string, int> by_kind;
  for (const std::string& line : Lines(out.str())) {
    by_kind[JsonField(line, "kind")]++;
  }
  EXPECT_EQ(by_kind["match"], static_cast<int>(edges));
  EXPECT_EQ(by_kind["new_object"],
            static_cast<int>(matcher.graph().ObjectCount()));
  EXPECT_EQ(by_kind["step"], 2);  // one per ProcessRevision call
  EXPECT_EQ(writer.match_records(), edges);
}

TEST(ProvenanceTest, MatchRecordsCarryStageAndSimilarity) {
  matching::TemporalMatcher matcher(ObjectType::kTable);
  std::ostringstream out;
  JsonlProvenanceWriter writer(out);
  matcher.SetProvenanceSink(&writer);

  ObjectInstance t = Table({"year result", "2001 won"});
  matcher.ProcessRevision(0, Revision({t}));
  matcher.ProcessRevision(1, Revision({t}));

  bool saw_match = false;
  for (const std::string& line : Lines(out.str())) {
    if (JsonField(line, "kind") != "match") continue;
    saw_match = true;
    EXPECT_EQ(JsonField(line, "type"), "table");
    EXPECT_EQ(JsonField(line, "revision"), "1");
    // Identical content matches in stage 1 (local, strict) with sim 1.
    EXPECT_EQ(JsonField(line, "stage"), "1");
    EXPECT_EQ(JsonField(line, "sim"), "1.000000");
    EXPECT_EQ(JsonField(line, "reason"), "matched");
    // The rear view holds one prior version; the best one is 0 back.
    EXPECT_EQ(JsonField(line, "rear_view_depth"), "0");
    EXPECT_EQ(JsonField(line, "rear_view_len"), "1");
  }
  EXPECT_TRUE(saw_match);
}

TEST(ProvenanceTest, NewObjectRecordsOnFirstRevision) {
  matching::TemporalMatcher matcher(ObjectType::kTable);
  std::ostringstream out;
  JsonlProvenanceWriter writer(out);
  matcher.SetProvenanceSink(&writer);

  matcher.ProcessRevision(
      0, Revision({Table({"first table content here"}),
                   Table({"second unrelated table text"})}));

  int new_objects = 0;
  for (const std::string& line : Lines(out.str())) {
    if (JsonField(line, "kind") != "new_object") continue;
    ++new_objects;
    EXPECT_EQ(JsonField(line, "reason"), "new_object");
    EXPECT_EQ(JsonField(line, "revision"), "0");
  }
  EXPECT_EQ(new_objects, 2);
}

TEST(ProvenanceTest, PipelineStampsPageTitles) {
  const char* xml = R"(<mediawiki>
<page><title>Alpha</title><id>1</id>
<revision><id>11</id><timestamp>2020-01-01T00:00:00Z</timestamp>
<text>{| class="wikitable"
|-
! year !! result
|-
| 2001 || won
|}</text></revision>
<revision><id>12</id><timestamp>2020-01-02T00:00:00Z</timestamp>
<text>{| class="wikitable"
|-
! year !! result
|-
| 2001 || won
|}</text></revision>
</page>
</mediawiki>)";

  std::ostringstream out;
  JsonlProvenanceWriter writer(out);
  core::Pipeline pipeline;
  pipeline.set_provenance_sink(&writer);
  auto results = pipeline.ProcessDumpXml(xml);
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  std::vector<std::string> lines = Lines(out.str());
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_EQ(JsonField(line, "page"), "Alpha") << line;
  }
  // The stable table yields exactly one match edge at revision 1.
  EXPECT_EQ(writer.match_records(), 1u);
}

TEST(ProvenanceTest, DetachedSinkEmitsNothing) {
  matching::TemporalMatcher matcher(ObjectType::kTable);
  std::ostringstream out;
  JsonlProvenanceWriter writer(out);
  matcher.SetProvenanceSink(&writer);
  matcher.SetProvenanceSink(nullptr);  // detach again

  ObjectInstance t = Table({"year result", "2001 won"});
  matcher.ProcessRevision(0, Revision({t}));
  matcher.ProcessRevision(1, Revision({t}));
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(writer.records(), 0u);
}

}  // namespace
}  // namespace somr::obs
