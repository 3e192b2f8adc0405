#include "obs/provenance.h"

#include <cinttypes>
#include <cstdio>

#include "common/string_util.h"

namespace somr::obs {

const char* MatchDecisionKindName(MatchDecision::Kind kind) {
  switch (kind) {
    case MatchDecision::Kind::kMatch:
      return "match";
    case MatchDecision::Kind::kReject:
      return "reject";
    case MatchDecision::Kind::kNewObject:
      return "new_object";
    case MatchDecision::Kind::kStep:
      return "step";
  }
  return "unknown";
}

namespace {

}  // namespace

std::string MatchDecisionToJson(const MatchDecision& d) {
  char buf[192];
  std::string out = "{\"kind\": \"";
  out += MatchDecisionKindName(d.kind);
  out += "\", \"page\": \"" + JsonEscape(d.page) + "\"";
  std::snprintf(buf, sizeof(buf), ", \"type\": \"%s\", \"revision\": %d",
                d.object_type, d.revision);
  out += buf;
  switch (d.kind) {
    case MatchDecision::Kind::kMatch:
    case MatchDecision::Kind::kReject:
      std::snprintf(buf, sizeof(buf),
                    ", \"stage\": %d, \"object\": %" PRId64
                    ", \"position\": %d, \"sim\": %.6f, \"threshold\": %g",
                    d.stage, d.object_id, d.position, d.similarity,
                    d.threshold);
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    ", \"rear_view_depth\": %d, \"rear_view_len\": %d",
                    d.rear_view_depth, d.rear_view_len);
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    ", \"tiebreak_position\": %.3g, "
                    "\"tiebreak_lifetime\": %.3g",
                    d.tiebreak_position, d.tiebreak_lifetime);
      out += buf;
      break;
    case MatchDecision::Kind::kNewObject:
      std::snprintf(buf, sizeof(buf),
                    ", \"object\": %" PRId64 ", \"position\": %d",
                    d.object_id, d.position);
      out += buf;
      break;
    case MatchDecision::Kind::kStep:
      std::snprintf(buf, sizeof(buf),
                    ", \"similarities\": %" PRIu64
                    ", \"pairs_pruned\": %" PRIu64,
                    d.similarities, d.pairs_pruned);
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    ", \"tracked\": %zu, \"incoming\": %zu",
                    d.tracked_objects, d.incoming_instances);
      out += buf;
      break;
  }
  // Schema v2 (additive): emitted for every kind when recorded; older
  // readers that key off the fields above simply ignore it.
  if (d.candidates_considered >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"candidates_considered\": %" PRId64,
                  d.candidates_considered);
    out += buf;
  }
  if (d.reason[0] != '\0') {
    out += ", \"reason\": \"";
    out += d.reason;
    out += "\"";
  }
  // Schema v3 (additive): request attribution for served ingests.
  if (d.trace_id != 0) {
    std::snprintf(buf, sizeof(buf), ", \"trace_id\": \"%016llx\"",
                  static_cast<unsigned long long>(d.trace_id));
    out += buf;
  }
  out += "}";
  return out;
}

void JsonlProvenanceWriter::Record(const MatchDecision& decision) {
  std::string line = MatchDecisionToJson(decision);
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  ++records_;
  if (decision.kind == MatchDecision::Kind::kMatch) ++match_records_;
}

size_t JsonlProvenanceWriter::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

size_t JsonlProvenanceWriter::match_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return match_records_;
}

}  // namespace somr::obs
