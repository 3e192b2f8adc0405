#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

std::vector<SpanRow> FromRecorder(
    const std::vector<somr::obs::TraceEvent>& events) {
  std::vector<SpanRow> rows;
  rows.reserve(events.size());
  for (const somr::obs::TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    SpanRow row;
    row.name = e.name;
    row.tid = e.tid;
    row.start_ns = e.start_ns;
    row.end_ns = e.start_ns + e.dur_ns;
    row.trace_id = e.trace_id;
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

// Text after `"key": ` on one line; empty when absent.
const char* FieldAt(const std::string& line, const char* key) {
  const std::string marker = std::string("\"") + key + "\": ";
  const size_t at = line.find(marker);
  return at == std::string::npos ? nullptr : line.c_str() + at + marker.size();
}

}  // namespace

std::vector<SpanRow> ParseChromeTrace(const std::string& json) {
  std::vector<SpanRow> rows;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const char* name = FieldAt(line, "name");
    const char* ts = FieldAt(line, "ts");
    const char* dur = FieldAt(line, "dur");
    const char* tid = FieldAt(line, "tid");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr ||
        *name != '"') {
      continue;
    }
    const char* name_end = std::strchr(name + 1, '"');
    if (name_end == nullptr) continue;
    SpanRow row;
    row.name.assign(name + 1, name_end);
    const double start_us = std::strtod(ts, nullptr);
    const double dur_us = std::strtod(dur, nullptr);
    row.start_ns = static_cast<int64_t>(start_us * 1000.0);
    row.end_ns = row.start_ns + static_cast<int64_t>(dur_us * 1000.0);
    row.tid = static_cast<uint32_t>(std::strtoul(tid, nullptr, 10));
    if (const char* trace = FieldAt(line, "trace_id"); trace && *trace == '"') {
      row.trace_id = std::strtoull(trace + 1, nullptr, 16);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void LinkParents(std::vector<SpanRow>& spans) {
  std::sort(spans.begin(), spans.end(), [](const SpanRow& a, const SpanRow& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<int> open;  // stack of enclosing spans on the current thread
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].tid != spans[i - 1].tid) open.clear();
    while (!open.empty() &&
           spans[static_cast<size_t>(open.back())].end_ns < spans[i].end_ns) {
      open.pop_back();
    }
    spans[i].parent = open.empty() ? -1 : open.back();
    open.push_back(static_cast<int>(i));
  }
}

std::map<std::string, LayerTotals> AggregateByName(
    const std::vector<SpanRow>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRow& s : spans) {
    if (s.parent >= 0) child_s[static_cast<size_t>(s.parent)] += s.Seconds();
  }
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    t.total_s += spans[i].Seconds();
    t.self_s += std::max(0.0, spans[i].Seconds() - child_s[i]);
    ++t.count;
  }
  return out;
}

double CoveredSeconds(const std::vector<SpanRow>& spans,
                      const std::function<bool(const std::string&)>& select) {
  std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> by_thread;
  for (const SpanRow& s : spans) {
    if (select(s.name)) by_thread[s.tid].emplace_back(s.start_ns, s.end_ns);
  }
  int64_t covered_ns = 0;
  for (auto& [tid, intervals] : by_thread) {
    std::sort(intervals.begin(), intervals.end());
    int64_t lo = intervals.front().first;
    int64_t hi = intervals.front().second;
    for (const auto& [start, end] : intervals) {
      if (start > hi) {
        covered_ns += hi - lo;
        lo = start;
        hi = end;
      } else {
        hi = std::max(hi, end);
      }
    }
    covered_ns += hi - lo;
  }
  return static_cast<double>(covered_ns) * 1e-9;
}

std::vector<double> Durations(
    const std::vector<SpanRow>& spans,
    const std::function<bool(const std::string&)>& select) {
  std::vector<double> out;
  for (const SpanRow& s : spans) {
    if (select(s.name)) out.push_back(s.Seconds());
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRow>& spans) {
  std::ofstream out(path);
  for (const SpanRow& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"tid\": " << s.tid
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"trace_id\": " << s.trace_id << ", \"parent\": " << s.parent
        << "}\n";
  }
  return out.good();
}

std::string LayerTable(const std::map<std::string, LayerTotals>& layers,
                       double wall_s) {
  std::vector<std::pair<std::string, LayerTotals>> rows(layers.begin(),
                                                        layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-26s %10s %10s %9s %8s\n", "span",
                "self_s", "total_s", "count", "self%");
  out += line;
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof(line), "  %-26s %10.4f %10.4f %9zu %7.1f%%\n",
                  name.c_str(), t.self_s, t.total_s, t.count,
                  wall_s > 0.0 ? 100.0 * t.self_s / wall_s : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench
