#pragma once
/// \file io.hpp
/// \brief Durable file I/O shared by the campaign journal, the results
/// store and the serve daemon's state directory.
///
/// Before this file, journal.cpp and store.cpp each carried their own
/// copies of write-fully / fsync-or-throw / atomic-replace. Centralizing
/// them buys two robustness properties every writer needs:
///
///  - **Rollback.** Appending and making durable are separate steps
///    (group commit, DESIGN.md §10): `appendWithRollback` writes a frame
///    without syncing it, and `syncWithRollback` fsyncs everything
///    written since the last commit. Each one truncates the file back
///    to the length it was given when it fails (ENOSPC, EIO): a failed
///    write leaves no torn frame behind, and a failed fsync leaves
///    exactly the bytes of the last successful commit, the ones known
///    to be on disk. The strict store decoder keeps accepting the file
///    either way.
///  - **I/O fault injection.** A test-only shim (`setIoFailure`) makes
///    the Nth subsequent write or fsync fail with a chosen errno —
///    optionally after a partial write, the worst case rollback must
///    handle — so the ENOSPC/EIO paths are testable without filling a
///    disk. The shim sits beside the `--crash-after-cell` hook in the
///    robustness toolbox; production builds never arm it.
///
/// Every function takes a `what` label ("journal", "store", "serve
/// state") so error texts keep naming the subsystem that failed.

#include <cstdint>
#include <span>
#include <string>

namespace nodebench::campaign::io {

/// Writes all of `bytes` at the current offset, retrying short writes
/// and EINTR. Throws Error("<what> write failed: <path>: <errno text>").
void writeAll(int fd, std::span<const std::uint8_t> bytes,
              const std::string& path, const char* what);

/// fsync or Error("<what> fsync failed: ...").
void fsyncOrThrow(int fd, const std::string& path, const char* what);

/// Best-effort fsync of `path`'s parent directory — required for a
/// rename into that directory to be durable on POSIX filesystems.
void syncParentDir(const std::string& path);

/// Atomically replaces `path` with `content` (write temp, fsync, rename,
/// sync parent dir). The temp file is unlinked on failure.
void atomicWrite(const std::string& path, std::span<const std::uint8_t> content,
                 const char* what);

/// Append with rollback: writes `bytes` at the end of the file, whose
/// length is `end` (the descriptor is O_APPEND). Does not fsync. If the
/// write fails the file is truncated back to `end` before the error
/// propagates, so the record stream is never left with a torn frame.
/// (If even the rollback truncate fails the error says so — the caller
/// then knows the tail is suspect and the torn-tail recovery path
/// applies.)
void appendWithRollback(int fd, std::uint64_t end,
                        std::span<const std::uint8_t> bytes,
                        const std::string& path, const char* what);

/// Commit with rollback: fsyncs the file. If the fsync fails, the file
/// is truncated back to `committed`, its length at the last successful
/// commit, before Error("<what> fsync failed: ...") propagates: what
/// stays is what is known to be on disk.
void syncWithRollback(int fd, std::uint64_t committed, const std::string& path,
                      const char* what);

// --- test-only fault injection ----------------------------------------------

/// Which syscall the armed fault fires on.
enum class IoOp : int {
  Write = 0,  ///< ::write fails (no bytes reach the file).
  PartialWrite = 1,  ///< ::write lands half the bytes, then fails.
  Fsync = 2,  ///< The write lands fully, then ::fsync fails.
};

/// Arms the shim: the (`afterCalls` + 1)-th subsequent matching syscall
/// issued through this layer fails with `errnoValue` (e.g. ENOSPC, EIO).
/// The shim disarms itself after firing once. Test-only; not reentrant
/// with concurrent arming (but safe against concurrent I/O).
void setIoFailure(IoOp op, int afterCalls, int errnoValue);

/// Disarms the shim (idempotent).
void clearIoFailure();

/// Number of times an armed fault has fired since the last arm/clear
/// (tests assert the fault actually triggered).
[[nodiscard]] int ioFailuresFired();

}  // namespace nodebench::campaign::io
