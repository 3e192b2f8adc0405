#include "reference_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "extract/features.h"
#include "matching/graph_io.h"
#include "matching/hungarian.h"
#include "obs/provenance.h"
#include "sim/similarity.h"

namespace somr::matching {
namespace {

/// Collects the production matcher's pair and new-object decisions in
/// the reference's record types.
class DecisionCollector : public obs::ProvenanceSink {
 public:
  void Record(const obs::MatchDecision& d) override {
    switch (d.kind) {
      case obs::MatchDecision::Kind::kMatch:
      case obs::MatchDecision::Kind::kReject:
        edges.push_back({d.revision, d.stage, d.object_id, d.position,
                         d.similarity,
                         d.kind == obs::MatchDecision::Kind::kMatch});
        break;
      case obs::MatchDecision::Kind::kNewObject:
        new_objects.push_back({d.revision, d.object_id, d.position});
        break;
      case obs::MatchDecision::Kind::kStep:
        break;  // work rates: the reference has none
    }
  }
  std::vector<ReferenceEdge> edges;
  std::vector<ReferenceNewObject> new_objects;
};

}  // namespace

ReferenceMatcher::ReferenceMatcher(extract::ObjectType type,
                                   MatcherConfig config)
    : config_(config), graph_(type) {}

double ReferenceMatcher::TieBreakBonus(const Tracked& tracked, int position,
                                       int revision_index) const {
  // The production formulas (Sec. IV-A3): lifetime dominates position,
  // both far below any similarity difference that matters.
  double position_part = 0.0, lifetime_part = 0.0;
  if (config_.use_spatial_features) {
    double pos_diff = std::abs(tracked.last_position - position);
    position_part = -1e-8 * (pos_diff / (pos_diff + 8.0));
  }
  if (config_.enable_lifetime_tiebreak) {
    double lifetime =
        static_cast<double>(revision_index - tracked.first_revision);
    lifetime_part = 1e-6 * (lifetime / (lifetime + 64.0));
  }
  return position_part + lifetime_part;
}

void ReferenceMatcher::ProcessRevision(
    int revision_index, const std::vector<extract::ObjectInstance>& instances) {
  const size_t nt = tracked_.size();
  const size_t nn = instances.size();

  std::vector<BagOfWords> bags;
  for (const extract::ObjectInstance& obj : instances) {
    bags.push_back(extract::BuildBagOfWords(obj, config_.features));
  }
  sim::TokenWeighting weighting;
  if (config_.use_idf_weighting) {
    std::vector<const BagOfWords*> previous, incoming;
    for (const Tracked& t : tracked_) previous.push_back(&t.history.back());
    for (const BagOfWords& bag : bags) incoming.push_back(&bag);
    weighting = sim::TokenWeighting::InverseObjectFrequency(previous, incoming);
  }

  struct Stage {
    int number;
    bool local_only;
    sim::SimilarityKind kind;
    double threshold;
  };
  std::vector<Stage> stages;
  if (config_.enable_stage1 && config_.use_spatial_features) {
    stages.push_back({1, true, sim::SimilarityKind::kStrict, config_.theta1});
  }
  if (config_.enable_stage2) {
    stages.push_back({2, false, sim::SimilarityKind::kStrict, config_.theta2});
  }
  if (config_.enable_stage3) {
    stages.push_back(
        {3, false, sim::SimilarityKind::kRelaxed, config_.theta3});
  }

  std::vector<bool> tracked_matched(nt, false);
  std::vector<int64_t> assignment(nn, -1);
  for (const Stage& stage : stages) {
    std::vector<WeightedEdge> edges;
    std::vector<double> sims;
    for (size_t ti = 0; ti < nt; ++ti) {
      if (tracked_matched[ti]) continue;
      const Tracked& t = tracked_[ti];
      std::vector<const BagOfWords*> history;
      for (const BagOfWords& bag : t.history) history.push_back(&bag);
      for (size_t ni = 0; ni < nn; ++ni) {
        if (assignment[ni] >= 0) continue;
        if (stage.local_only &&
            std::abs(t.last_position - instances[ni].position) >
                config_.theta_pos) {
          continue;
        }
        const double s = sim::DecayedSimilarity(
            stage.kind, history, bags[ni], config_.rear_view_window,
            config_.decay, weighting);
        if (s < stage.threshold) continue;
        edges.push_back(
            {static_cast<int>(ti), static_cast<int>(ni),
             s + TieBreakBonus(t, instances[ni].position, revision_index)});
        sims.push_back(s);
      }
    }
    if (edges.empty()) continue;
    const size_t first_edge = edges_.size();
    for (size_t e = 0; e < edges.size(); ++e) {
      const size_t ni = static_cast<size_t>(edges[e].right);
      edges_.push_back({revision_index, stage.number,
                        tracked_[static_cast<size_t>(edges[e].left)].id,
                        instances[ni].position, sims[e], false});
    }
    for (auto [ti, ni] : MaxWeightMatching(nt, nn, edges)) {
      tracked_matched[static_cast<size_t>(ti)] = true;
      assignment[static_cast<size_t>(ni)] =
          tracked_[static_cast<size_t>(ti)].id;
      ++stage_matches_[stage.number - 1];
      for (size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].left == ti && edges[e].right == ni) {
          edges_[first_edge + e].accepted = true;
        }
      }
    }
  }

  const size_t window =
      static_cast<size_t>(std::max(config_.rear_view_window, 1));
  for (size_t ni = 0; ni < nn; ++ni) {
    const VersionRef ref{revision_index, instances[ni].position};
    int64_t object_id = assignment[ni];
    if (object_id < 0) {
      object_id = graph_.AddObject(ref);
      Tracked t;
      t.id = object_id;
      t.first_revision = revision_index;
      tracked_.push_back(std::move(t));
      new_objects_.push_back(
          {revision_index, object_id, instances[ni].position});
    } else {
      graph_.AppendVersion(object_id, ref);
    }
    Tracked& t = tracked_[static_cast<size_t>(object_id)];
    t.history.push_back(std::move(bags[ni]));
    while (t.history.size() > window) t.history.pop_front();
    t.last_position = instances[ni].position;
  }
}

MatchStats ExpectMatchesReference(
    const std::vector<std::vector<extract::ObjectInstance>>& revisions,
    extract::ObjectType type, const MatcherConfig& config) {
  TemporalMatcher production(type, config);
  DecisionCollector collector;
  production.SetProvenanceSink(&collector);
  ReferenceMatcher reference(type, config);
  for (size_t r = 0; r < revisions.size(); ++r) {
    production.ProcessRevision(static_cast<int>(r), revisions[r]);
    reference.ProcessRevision(static_cast<int>(r), revisions[r]);
  }

  EXPECT_EQ(SerializeIdentityGraph(production.graph()),
            SerializeIdentityGraph(reference.graph()));
  const MatchStats& stats = production.stats();
  EXPECT_EQ(stats.stage1_matches, reference.stage_matches()[0]);
  EXPECT_EQ(stats.stage2_matches, reference.stage_matches()[1]);
  EXPECT_EQ(stats.stage3_matches, reference.stage_matches()[2]);
  const std::vector<ReferenceNewObject>& want_new = reference.new_objects();
  EXPECT_EQ(stats.new_objects, want_new.size());
  EXPECT_EQ(collector.new_objects.size(), want_new.size());
  for (size_t i = 0;
       i < std::min(collector.new_objects.size(), want_new.size()); ++i) {
    const ReferenceNewObject& got = collector.new_objects[i];
    const ReferenceNewObject& want = want_new[i];
    if (got.revision != want.revision || got.object_id != want.object_id ||
        got.position != want.position) {
      ADD_FAILURE() << "new object " << i << ": production r"
                    << got.revision << " o" << got.object_id << " p"
                    << got.position << ", reference r" << want.revision
                    << " o" << want.object_id << " p" << want.position;
      break;  // later records only repeat the divergence
    }
  }

  const std::vector<ReferenceEdge>& want_edges = reference.edges();
  EXPECT_EQ(collector.edges.size(), want_edges.size());
  for (size_t i = 0; i < std::min(collector.edges.size(), want_edges.size());
       ++i) {
    const ReferenceEdge& got = collector.edges[i];
    const ReferenceEdge& want = want_edges[i];
    if (got.revision != want.revision || got.stage != want.stage ||
        got.object_id != want.object_id || got.position != want.position ||
        got.accepted != want.accepted ||
        !(std::fabs(got.similarity - want.similarity) <= 1e-9)) {
      ADD_FAILURE() << "edge " << i << ": production r" << got.revision
                    << " s" << got.stage << " o" << got.object_id << " p"
                    << got.position << " sim=" << got.similarity
                    << (got.accepted ? " matched" : " rejected")
                    << ", reference r" << want.revision << " s"
                    << want.stage << " o" << want.object_id << " p"
                    << want.position << " sim=" << want.similarity
                    << (want.accepted ? " matched" : " rejected");
      break;  // later records only repeat the divergence
    }
  }
  return stats;
}

}  // namespace somr::matching
