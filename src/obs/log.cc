#include "obs/log.h"

#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/string_util.h"
#include "common/thread_annotations.h"

#include "obs/trace.h"

namespace somr::obs {

namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

std::mutex g_sink_mu;
// empty = stderr
std::function<void(const std::string&)> g_sink SOMR_GUARDED_BY(g_sink_mu);

int64_t WallNowSeconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double WallNowSecondsF() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

/// Basename only: log lines should not leak build-tree paths.
const char* FileBasename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

void EmitLine(const std::string& line) {
  std::function<void(const std::string&)> sink;
  {
    std::lock_guard<std::mutex> lock(g_sink_mu);
    sink = g_sink;
  }
  if (sink) {
    sink(line);
  } else {
    std::fwrite(line.data(), 1, line.size(), stderr);
  }
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "info";
}

LogLevel ParseLogLevel(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return LogLevel::kInfo;
}

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         g_log_level.load(std::memory_order_relaxed);
}

void SetLogSink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  g_sink = std::move(sink);
}

bool LogSite::Admit(int64_t now_s, uint64_t* suppressed_out) {
  int64_t window = window_start_s.load(std::memory_order_relaxed);
  if (window < 0 || now_s - window >= kWindowSeconds) {
    // A new window opens: reset the per-window budget. Benign race — two
    // threads may both reset, which at worst doubles one window's budget.
    window_start_s.store(now_s, std::memory_order_relaxed);
    emitted_in_window.store(0, std::memory_order_relaxed);
  }
  const uint32_t n = emitted_in_window.fetch_add(1, std::memory_order_relaxed);
  if (n >= kMaxPerWindow) {
    suppressed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *suppressed_out = suppressed.exchange(0, std::memory_order_relaxed);
  return true;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line,
                       LogSite* site)
    : level_(level), file_(file), line_(line) {
  admitted_ = site->Admit(WallNowSeconds(), &suppressed_);
}

LogMessage::~LogMessage() {
  if (!admitted_) return;
  char buf[96];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"level\": \"%s\"",
                WallNowSecondsF(), LogLevelName(level_));
  out += buf;
  out += ", \"msg\": \"";
  out += JsonEscape(stream_.str());
  out += "\"";
  const uint64_t trace_id = CurrentTraceId();
  if (trace_id != 0) {
    std::snprintf(buf, sizeof(buf), ", \"trace_id\": \"%016llx\"",
                  static_cast<unsigned long long>(trace_id));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ", \"file\": \"%s\", \"line\": %d",
                FileBasename(file_), line_);
  out += buf;
  if (suppressed_ > 0) {
    std::snprintf(buf, sizeof(buf), ", \"suppressed\": %llu",
                  static_cast<unsigned long long>(suppressed_));
    out += buf;
  }
  out += "}\n";
  EmitLine(out);
}

}  // namespace somr::obs
