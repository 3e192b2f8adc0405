#include "state/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace somr::state {

namespace {

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_calls{0};
std::atomic<uint64_t> g_fail_at{0};
std::atomic<IoFault> g_fault{IoFault::kError};

/// Counts one seam call while armed; true when it is the one to fail.
bool InjectFault() {
  if (!g_armed.load()) return false;
  return g_calls.fetch_add(1) + 1 == g_fail_at.load();
}

Status Failed(const std::string& what, const char* reason) {
  return Status::Internal(what + " failed: " + reason);
}

Status Failed(const std::string& what) {
  return Failed(what, std::strerror(errno));
}

constexpr const char* kInjected = "injected fault";

Status SyncFile(int fd, const std::string& what) {
  if (InjectFault()) return Failed("fsync of " + what, kInjected);
  if (::fsync(fd) != 0) return Failed("fsync of " + what);
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (InjectFault()) return Failed("rename to " + to, kInjected);
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Failed("rename to " + to);
  }
  return Status::OK();
}

}  // namespace

Status PReadExact(int fd, uint64_t offset, uint64_t length,
                  std::string* out) {
  out->resize(static_cast<size_t>(length));
  uint64_t done = 0;
  while (done < length) {
    ssize_t n = ::pread(fd, out->data() + done,
                        static_cast<size_t>(length - done),
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Failed("pread");
    }
    if (n == 0) return Status::Internal("pread hit EOF mid-record");
    done += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status PWriteAll(int fd, uint64_t offset, std::string_view data) {
  if (InjectFault()) {
    if (g_fault.load() == IoFault::kShortWrite) {
      // The torn write a crash or a full disk can leave behind.
      (void)::pwrite(fd, data.data(), data.size() / 2,
                     static_cast<off_t>(offset));
    }
    return Failed("pwrite", kInjected);
  }
  uint64_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Failed("pwrite");
    }
    done += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status SyncData(int fd, const std::string& what) {
  if (InjectFault()) return Failed("fdatasync of " + what, kInjected);
  if (::fdatasync(fd) != 0) return Failed("fdatasync of " + what);
  return Status::OK();
}

Status TruncateFile(int fd, uint64_t length, const std::string& what) {
  if (InjectFault()) return Failed("ftruncate of " + what, kInjected);
  if (::ftruncate(fd, static_cast<off_t>(length)) != 0) {
    return Failed("ftruncate of " + what);
  }
  return Status::OK();
}

Status AtomicWriteDurable(const std::string& path,
                          std::string_view content) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Failed("create " + tmp);
  Status status = PWriteAll(fd, 0, content);
  if (status.ok()) status = SyncFile(fd, tmp);
  ::close(fd);
  if (status.ok()) status = RenameFile(tmp, path);
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  // fsync the directory so the rename itself survives a crash.
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  const std::string dir = parent.empty() ? std::string(".") : parent;
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return Failed("open of directory " + dir);
  status = SyncFile(dfd, "directory " + dir);
  ::close(dfd);
  return status;
}

void ArmIoFaults(uint64_t fail_at, IoFault fault) {
  g_calls.store(0);
  g_fail_at.store(fail_at);
  g_fault.store(fault);
  g_armed.store(true);
}

uint64_t DisarmIoFaults() {
  g_armed.store(false);
  return g_calls.load();
}

}  // namespace somr::state
