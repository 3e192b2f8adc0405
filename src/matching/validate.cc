#include "matching/validate.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "retrieval/validate.h"

namespace somr::matching {

void ValidateIdentityGraph(const IdentityGraph& graph,
                           ValidationReport* report,
                           bool positions_unique) {
  std::set<int64_t> seen_ids;
  std::map<VersionRef, int64_t> owner_of;
  const std::vector<TrackedObjectRecord>& objects = graph.objects();
  for (size_t i = 0; i < objects.size(); ++i) {
    const TrackedObjectRecord& object = objects[i];
    if (!seen_ids.insert(object.object_id).second) {
      report->AddIssue("identity_graph")
          << "duplicate object id " << object.object_id;
    }
    if (object.object_id != static_cast<int64_t>(i)) {
      report->AddIssue("identity_graph")
          << "object id " << object.object_id << " at index " << i
          << " (ids must be sequential)";
    }
    if (object.type != graph.type()) {
      report->AddIssue("identity_graph")
          << "object " << object.object_id << " type mismatch";
    }
    if (object.versions.empty()) {
      report->AddIssue("identity_graph")
          << "object " << object.object_id << " has no versions";
      continue;
    }
    for (size_t v = 0; v < object.versions.size(); ++v) {
      const VersionRef& ref = object.versions[v];
      if (ref.revision < 0 || ref.position < 0) {
        report->AddIssue("identity_graph")
            << "object " << object.object_id << " version " << v
            << " has negative revision/position (" << ref.revision << ", "
            << ref.position << ")";
      }
      if (v > 0 && object.versions[v - 1].revision >= ref.revision) {
        report->AddIssue("identity_graph")
            << "object " << object.object_id
            << " revisions not strictly increasing at version " << v
            << " (" << object.versions[v - 1].revision << " -> "
            << ref.revision << ")";
      }
      if (positions_unique) {
        auto [it, inserted] = owner_of.emplace(ref, object.object_id);
        if (!inserted) {
          report->AddIssue("identity_graph")
              << "instance (r" << ref.revision << ", p" << ref.position
              << ") claimed by objects " << it->second << " and "
              << object.object_id << " (graph must be linear)";
        }
      }
    }
  }
}

void ValidateAssignment(const std::vector<int64_t>& assignment,
                        size_t object_count, ValidationReport* report) {
  std::set<int64_t> used;
  for (size_t ni = 0; ni < assignment.size(); ++ni) {
    const int64_t id = assignment[ni];
    if (id < 0) continue;  // new object
    if (id >= static_cast<int64_t>(object_count)) {
      report->AddIssue("matching")
          << "instance " << ni << " assigned to unknown object " << id
          << " (only " << object_count << " objects exist)";
    }
    if (!used.insert(id).second) {
      report->AddIssue("matching")
          << "object " << id
          << " matched to more than one incoming instance "
             "(assignment must be one-to-one)";
    }
  }
}

void ValidateGraphAgainstHistory(
    const IdentityGraph& graph,
    const std::vector<extract::PageObjects>& revisions,
    ValidationReport* report) {
  // Instances covered per revision; compared against the extraction
  // counts afterwards to find orphans.
  std::map<int, std::set<int>> covered;
  for (const TrackedObjectRecord& object : graph.objects()) {
    for (const VersionRef& ref : object.versions) {
      if (ref.revision < 0 ||
          ref.revision >= static_cast<int>(revisions.size())) {
        report->AddIssue("matching")
            << "object " << object.object_id << " references revision "
            << ref.revision << " outside the " << revisions.size()
            << "-revision history";
        continue;
      }
      const std::vector<extract::ObjectInstance>& instances =
          revisions[static_cast<size_t>(ref.revision)].OfType(graph.type());
      if (ref.position < 0 ||
          ref.position >= static_cast<int>(instances.size())) {
        report->AddIssue("matching")
            << "object " << object.object_id << " references position "
            << ref.position << " in revision " << ref.revision
            << " which has only " << instances.size() << " instances";
        continue;
      }
      covered[ref.revision].insert(ref.position);
    }
  }
  for (size_t r = 0; r < revisions.size(); ++r) {
    const size_t extracted = revisions[r].OfType(graph.type()).size();
    const size_t matched = covered[static_cast<int>(r)].size();
    if (matched != extracted) {
      report->AddIssue("matching")
          << "revision " << r << " has " << extracted << " extracted "
          << extract::ObjectTypeName(graph.type()) << " instances but "
          << matched << " are covered by identity chains (orphans)";
    }
  }
}

void ValidateMatcherConfig(const MatcherConfig& config,
                           ValidationReport* report) {
  auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!in_unit(config.theta1) || !in_unit(config.theta2) ||
      !in_unit(config.theta3)) {
    report->AddIssue("matching")
        << "stage thresholds must lie in [0, 1] (theta1=" << config.theta1
        << ", theta2=" << config.theta2 << ", theta3=" << config.theta3
        << ")";
  }
  if (config.theta1 < config.theta2 || config.theta2 < config.theta3) {
    report->AddIssue("matching")
        << "stage thresholds must be non-increasing, theta1 >= theta2 >= "
           "theta3 (got "
        << config.theta1 << ", " << config.theta2 << ", " << config.theta3
        << ")";
  }
  if (config.rear_view_window < 1) {
    report->AddIssue("matching")
        << "rear_view_window must be >= 1 (got "
        << config.rear_view_window << ")";
  }
  if (config.decay <= 0.0 || config.decay > 1.0) {
    report->AddIssue("matching")
        << "decay must lie in (0, 1] (got " << config.decay << ")";
  }
  if (config.theta_pos < 0) {
    report->AddIssue("matching")
        << "theta_pos must be >= 0 (got " << config.theta_pos << ")";
  }
}

void TemporalMatcher::Validate(ValidationReport* report) const {
  ValidateMatcherConfig(config_, report);
  ValidateIdentityGraph(graph_, report, input_positions_unique_);
  if (tracked_.size() != graph_.ObjectCount()) {
    report->AddIssue("matching")
        << "tracked-object table has " << tracked_.size()
        << " entries but the graph has " << graph_.ObjectCount()
        << " objects";
    return;
  }
  const size_t window = static_cast<size_t>(config_.rear_view_window);
  for (size_t i = 0; i < tracked_.size(); ++i) {
    const Tracked& t = tracked_[i];
    if (t.id != static_cast<int64_t>(i)) {
      report->AddIssue("matching")
          << "tracked entry " << i << " carries id " << t.id;
    }
    if (t.recent_flat.size() > window) {
      report->AddIssue("matching")
          << "object " << t.id << " rear-view depth " << t.recent_flat.size()
          << " exceeds window k=" << window;
    }
    const std::vector<TrackedObjectRecord>& objects = graph_.objects();
    if (i < objects.size() && !objects[i].versions.empty()) {
      const VersionRef& newest = objects[i].versions.back();
      if (t.last_revision != newest.revision ||
          t.last_position != newest.position) {
        report->AddIssue("matching")
            << "object " << t.id << " tracked tail (r" << t.last_revision
            << ", p" << t.last_position << ") disagrees with graph tail (r"
            << newest.revision << ", p" << newest.position << ")";
      }
      if (objects[i].versions.front().revision != t.first_revision) {
        report->AddIssue("matching")
            << "object " << t.id << " first_revision " << t.first_revision
            << " disagrees with its first graph version r"
            << objects[i].versions.front().revision;
      }
    }
  }
  // Cross-check the retrieval index against the rear-view windows it
  // shadows (the "retrieval_index" registered validator).
  std::vector<const std::deque<FlatBag>*> windows;
  windows.reserve(tracked_.size());
  for (const Tracked& t : tracked_) windows.push_back(&t.recent_flat);
  retrieval::ValidateCandidateIndex(index_, windows, report);
}

void PageMatcher::Validate(ValidationReport* report) const {
  tables_.Validate(report);
  infoboxes_.Validate(report);
  lists_.Validate(report);
}

}  // namespace somr::matching
