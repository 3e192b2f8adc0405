#include "sys.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double PeakRssMib(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double HostProbeSeconds() {
  std::vector<uint64_t> table(1 << 14);
  for (size_t i = 0; i < table.size(); ++i) table[i] = i * 0x9e3779b97f4a7c15u;
  // The first run only warms the core up: a fresh process reads about
  // twice as slow on it.
  double seconds = 0.0;
  uint64_t h = 1469598103934665603u;
  for (int run = 0; run < 2; ++run) {
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < 3000; ++round) {
      for (uint64_t v : table) {
        h ^= v + static_cast<uint64_t>(round);
        h *= 1099511628211u;
      }
    }
    seconds = SecondsSince(start);
  }
  // Publishing the hash keeps the loop from being folded away.
  static std::atomic<uint64_t> sink{0};
  sink.store(h, std::memory_order_relaxed);
  return seconds;
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) Stop(5.0);
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    // The child dies with the benchmark, even when a watchdog kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  return true;
}

int ChildProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0) {
      pid_ = -1;
      return -1;
    }
    if (SecondsSince(start) > timeout_s) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double Sample(const std::map<std::string, double>& scrape,
              const std::string& name) {
  auto it = scrape.find(name);
  return it == scrape.end() ? 0.0 : it->second;
}

double JsonNumber(const std::string& json, const std::string& key,
                  double fallback) {
  const std::string marker = "\"" + key + "\": ";
  const size_t at = json.find(marker);
  if (at == std::string::npos) return fallback;
  return std::strtod(json.c_str() + at + marker.size(), nullptr);
}

}  // namespace perfbench
