#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

#include "common/thread_annotations.h"

namespace somr::obs {

/// One match-decision record: why an incoming instance was (or was not)
/// attached to a tracked object at one matching step. Emitted only when a
/// ProvenanceSink is attached to the matcher — the hot path never builds
/// these otherwise.
struct MatchDecision {
  enum class Kind {
    kMatch,      // candidate pair accepted: one per matched identity edge
    kReject,     // above-threshold pair that lost the assignment
    kNewObject,  // unmatched instance became a new object
    kStep,       // per-revision summary (prune/blocking counters)
  };

  Kind kind = Kind::kStep;
  std::string page;              // filled by the pipeline layer
  const char* object_type = "";  // "table" | "infobox" | "list"
  int revision = 0;
  // Request trace id of the HTTP request that triggered this decision
  // (obs::CurrentTraceId() at emission; 0 in batch runs). Serialized as
  // "trace_id": "<16 hex>" when nonzero — schema v3, additive.
  uint64_t trace_id = 0;

  // Pair records (kMatch/kReject); kNewObject fills object_id/position.
  int stage = 0;           // 1..3
  int64_t object_id = -1;  // tracked object
  int position = -1;       // incoming instance position in the revision
  double similarity = 0.0;
  double threshold = 0.0;
  int rear_view_depth = -1;  // versions back (0 = newest) of the best sim
  int rear_view_len = 0;     // history versions compared
  double tiebreak_position = 0.0;
  double tiebreak_lifetime = 0.0;
  /// Candidate pairs the retrieval/sweep enumeration offered: for pair
  /// records the instance's count in that stage, for new-object records
  /// its count across all stages, for step records the step total.
  /// -1 = not recorded (the key is then omitted from the JSON; schema v2
  /// addition — readers must tolerate both). Indexed and swept runs
  /// report different counts by design.
  int64_t candidates_considered = -1;
  const char* reason = "";  // "matched" | "lost_assignment" | "new_object"

  // Step records: counter deltas for this revision.
  uint64_t similarities = 0;
  uint64_t pairs_pruned = 0;
  size_t tracked_objects = 0;
  size_t incoming_instances = 0;
};

const char* MatchDecisionKindName(MatchDecision::Kind kind);

/// Receiver of match decisions. Implementations must be thread-safe:
/// pipeline workers process pages concurrently against one sink.
class ProvenanceSink {
 public:
  virtual ~ProvenanceSink() = default;
  virtual void Record(const MatchDecision& decision) = 0;
};

/// Serializes each decision as one JSON object per line (JSONL).
class JsonlProvenanceWriter : public ProvenanceSink {
 public:
  /// `out` must outlive the writer.
  explicit JsonlProvenanceWriter(std::ostream& out) : out_(out) {}

  void Record(const MatchDecision& decision) override;

  size_t records() const;
  size_t match_records() const;

 private:
  mutable std::mutex mu_;
  std::ostream& out_;
  size_t records_ SOMR_GUARDED_BY(mu_) = 0;
  size_t match_records_ SOMR_GUARDED_BY(mu_) = 0;
};

/// Renders one decision as a single-line JSON object (no newline).
std::string MatchDecisionToJson(const MatchDecision& decision);

/// Decorator stamping a page title onto every decision before forwarding.
/// The pipeline wraps its shared sink in one of these per page, so the
/// matcher itself never needs to know what page it serves.
class PageScopedSink : public ProvenanceSink {
 public:
  PageScopedSink(ProvenanceSink* inner, std::string page)
      : inner_(inner), page_(std::move(page)) {}

  void Record(const MatchDecision& decision) override {
    if (inner_ == nullptr) return;
    MatchDecision stamped = decision;
    stamped.page = page_;
    inner_->Record(stamped);
  }

  bool active() const { return inner_ != nullptr; }

 private:
  ProvenanceSink* inner_;
  std::string page_;
};

}  // namespace somr::obs
