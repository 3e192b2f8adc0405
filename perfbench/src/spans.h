#pragma once

// Span analysis for the traced pass. Spans come from obs::TraceRecorder
// (the benchmark's own spans around layer calls plus the program's
// existing ones) or from a daemon's Chrome trace file; parents are
// derived by interval containment on one thread.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct SpanRow {
  std::string name;
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t trace_id = 0;
  int parent = -1;  // index into the same vector, -1 for a root

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

std::vector<SpanRow> FromRecorder(const std::vector<somr::obs::TraceEvent>& events);

/// Events of a Chrome trace_event JSON file as written by ChromeTraceJson
/// (one event per line, microsecond ts/dur).
std::vector<SpanRow> ParseChromeTrace(const std::string& json);

/// Sorts spans by (thread, start, longest first) and sets each parent to
/// the innermost earlier span on the same thread that contains it.
void LinkParents(std::vector<SpanRow>& spans);

struct LayerTotals {
  double total_s = 0.0;  // sum of durations
  double self_s = 0.0;   // sum of durations minus direct children
  size_t count = 0;
};

/// Totals per span name (parents must be linked).
std::map<std::string, LayerTotals> AggregateByName(
    const std::vector<SpanRow>& spans);

/// Seconds covered by the union, per thread, of the spans whose name
/// satisfies `select`, summed over threads.
double CoveredSeconds(const std::vector<SpanRow>& spans,
                      const std::function<bool(const std::string&)>& select);

/// Durations (seconds) of spans whose name satisfies `select`.
std::vector<double> Durations(const std::vector<SpanRow>& spans,
                              const std::function<bool(const std::string&)>& select);

/// Writes spans as JSON lines: name, tid, start/end ns, trace id, parent.
bool WriteSpans(const std::string& path, const std::vector<SpanRow>& spans);

/// Human-readable layer table (self and total seconds, count, share of
/// `wall_s`), heaviest self time first.
std::string LayerTable(const std::map<std::string, LayerTotals>& layers,
                       double wall_s);

}  // namespace perfbench
