#pragma once

// A naive reference implementation of Algorithm 1 (Sec. IV), used only by
// the differential tests: string bags (extract::BuildBagOfWords), the
// string-keyed IOF weighting, sim::DecayedSimilarity over the full
// rear-view window and an all-pairs sweep in every stage, with the
// production tie-break formulas and commit rule. No bounds, no retrieval
// index, no caches, no threads — every pair of every stage is scored, so
// whatever the production matcher prunes or skips must not change a
// single decision.

#include <cstdint>
#include <deque>
#include <vector>

#include "extract/object.h"
#include "matching/identity_graph.h"
#include "matching/matcher.h"
#include "text/bag_of_words.h"

namespace somr::matching {

/// One edge offered to the assignment solve of one stage.
struct ReferenceEdge {
  int revision = 0;
  int stage = 0;
  int64_t object_id = 0;
  int position = 0;
  double similarity = 0.0;  // decayed similarity, without tie-breaks
  bool accepted = false;    // kept by the max-weight matching
};

/// One instance that started a new object.
struct ReferenceNewObject {
  int revision = 0;
  int64_t object_id = 0;
  int position = 0;
};

class ReferenceMatcher {
 public:
  ReferenceMatcher(extract::ObjectType type, MatcherConfig config);

  void ProcessRevision(int revision_index,
                       const std::vector<extract::ObjectInstance>& instances);

  const IdentityGraph& graph() const { return graph_; }
  /// Accepted matches per stage (index 0 = stage 1).
  const size_t* stage_matches() const { return stage_matches_; }
  /// Every edge offered to an assignment solve, in offer order: per
  /// revision, per stage, ascending (object, instance).
  const std::vector<ReferenceEdge>& edges() const { return edges_; }
  /// Every new-object decision, in commit order.
  const std::vector<ReferenceNewObject>& new_objects() const {
    return new_objects_;
  }

 private:
  struct Tracked {
    int64_t id = 0;
    std::deque<BagOfWords> history;  // oldest..newest, at most max(k, 1)
    int last_position = 0;
    int first_revision = 0;
  };

  double TieBreakBonus(const Tracked& tracked, int position,
                       int revision_index) const;

  MatcherConfig config_;
  IdentityGraph graph_;
  std::vector<Tracked> tracked_;
  size_t stage_matches_[3] = {0, 0, 0};
  std::vector<ReferenceEdge> edges_;
  std::vector<ReferenceNewObject> new_objects_;
};

/// Runs the production TemporalMatcher (with a provenance sink attached)
/// and the reference over the same revision stream and checks, with
/// gtest expectations, that they agree: identity graph, per-stage match
/// counts, every new-object decision and every edge offered to an
/// assignment solve (same order, object, position and outcome, and
/// similarity within 1e-9). Returns the production matcher's stats.
MatchStats ExpectMatchesReference(
    const std::vector<std::vector<extract::ObjectInstance>>& revisions,
    extract::ObjectType type, const MatcherConfig& config);

}  // namespace somr::matching
