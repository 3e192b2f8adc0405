#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::Info(const std::string& key, double value) {
  info.emplace_back(key, Number(value));
}

void Report::Fail(const std::string& message) {
  correct = false;
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

void Report::Absorb(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  correct = correct && other.correct;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  out += "}, \"info\": {";
  for (size_t i = 0; i < info.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(info[i].first) + ": " + info[i].second;
  }
  out += "}, \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(errors[i]);
  }
  out += "], \"layer_table\": " + JsonString(layer_table) + "}";
  return out;
}

}  // namespace perfbench
