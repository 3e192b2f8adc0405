#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// What one workload run hands back to the runner: named metrics with
/// units, the operation counts, correctness, and diagnostics.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Diagnostics that are not metrics: sample counts, tail percentiles,
  /// host probes. Values are JSON literals.
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;  // first few failure messages
  std::string layer_table;          // traced runs only

  void Set(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, double value);
  /// Records one failed operation (and makes the run incorrect).
  void Fail(const std::string& message);
  /// Adds another report's operation counts, correctness and errors.
  void Absorb(const Report& other);

  std::string ToJson() const;
};

std::string JsonString(const std::string& text);

}  // namespace perfbench
