#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace somr::state {

// The storage syscalls under the record log and its index. Every pwrite,
// fdatasync, fsync, rename and ftruncate of those files goes through
// these wrappers, so a test can make any one of them fail (ArmIoFaults)
// and check what a reopened store recovers.

/// Reads exactly `length` bytes at `offset` into `out`.
Status PReadExact(int fd, uint64_t offset, uint64_t length,
                  std::string* out);

/// Writes all of `data` at `offset`, looping over short writes.
Status PWriteAll(int fd, uint64_t offset, std::string_view data);

/// fdatasync of `fd`; `what` names the file in the error.
Status SyncData(int fd, const std::string& what);

/// ftruncate of `fd` to `length`; `what` names the file in the error.
Status TruncateFile(int fd, uint64_t length, const std::string& what);

/// Writes `content` to `path` with full durability: temp file in the
/// same directory, write, fsync, rename over the target, fsync the
/// directory. A crash at any point leaves either the old or the new
/// complete content, never a torn mix. Every failed step is an error,
/// including opening or syncing the directory: the rename may then not
/// survive a crash.
Status AtomicWriteDurable(const std::string& path, std::string_view content);

/// How the armed call of the fault seam fails.
enum class IoFault {
  kError,       // fails and writes nothing
  kShortWrite,  // a pwrite writes the first half of its bytes, then fails
                // (a torn write); other calls fail as kError
};

/// Test-only fault seam. Counts every pwrite, fdatasync, fsync, rename
/// and ftruncate made by the functions above (reads are not counted),
/// from zero, and makes call number `fail_at` (1-based) fail as `fault`;
/// `fail_at` 0 only counts. The seam is process-wide.
void ArmIoFaults(uint64_t fail_at, IoFault fault = IoFault::kError);

/// Disarms the seam and returns how many calls it counted.
uint64_t DisarmIoFaults();

}  // namespace somr::state
