#pragma once

#include <sys/types.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// VmHWM (peak resident set) of `pid` in MiB; the calling process when
/// pid is 0. 0 when /proc is unreadable.
double PeakRssMib(pid_t pid = 0);

/// A fixed CPU-bound single-thread task (integer hashing over a small
/// table), timed in seconds. A host-speed diagnostic only: it is printed
/// beside each repetition and never used to rescale a metric.
double HostProbeSeconds();

/// A child process started with fork/exec. The destructor kills and
/// reaps a child that is still running, so no path leaves one behind.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Starts `argv[0]` with `argv`, stdout and stderr to `log_path`.
  bool Start(const std::vector<std::string>& argv,
             const std::string& log_path);
  /// Sends SIGTERM and waits up to `timeout_s` for exit (then SIGKILL).
  /// Returns the exit status (-1 when it had to be killed).
  int Stop(double timeout_s);
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

std::string ReadFileOrEmpty(const std::string& path);

/// Prometheus text exposition parsed into sample -> value, keyed by the
/// sample name including its label set (`x_bucket{le="0.1"}`).
std::map<std::string, double> ParsePrometheus(const std::string& text);

/// Value of sample `name` in a scrape, 0 when absent.
double Sample(const std::map<std::string, double>& scrape,
              const std::string& name);

/// First number after `"key": ` in a JSON text; `fallback` when absent.
double JsonNumber(const std::string& json, const std::string& key,
                  double fallback = 0.0);

}  // namespace perfbench
