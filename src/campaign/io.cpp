#include "campaign/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "core/error.hpp"

namespace nodebench::campaign::io {

namespace {

std::string errnoText() { return std::strerror(errno); }

/// Armed-fault state. A single global slot is enough: the shim is a
/// test hook, and tests arm one fault at a time. The countdown is atomic
/// so harness worker threads can race through writeAll safely.
struct FaultSlot {
  std::atomic<bool> armed{false};
  std::atomic<int> remaining{0};
  std::atomic<int> fired{0};
  IoOp op = IoOp::Write;
  int errnoValue = EIO;
};

FaultSlot& faultSlot() {
  static FaultSlot slot;
  return slot;
}

/// True when the armed fault matches `op` and its countdown expires on
/// this call; the caller must then fail with the injected errno.
bool faultFires(IoOp op) {
  FaultSlot& slot = faultSlot();
  if (!slot.armed.load(std::memory_order_acquire) || slot.op != op) {
    return false;
  }
  if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) != 0) {
    return false;
  }
  slot.armed.store(false, std::memory_order_release);
  slot.fired.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

/// Truncates the file back to `length` after `failure`; throws `failure`
/// extended with the truncate's own error if that fails too.
void rollBack(int fd, std::uint64_t length, const Error& failure) {
  if (::ftruncate(fd, static_cast<off_t>(length)) != 0) {
    throw Error(std::string(failure.what()) +
                "; rollback truncate also failed: " + errnoText() +
                " (the file may carry a torn trailing frame)");
  }
  (void)::fsync(fd);
}

}  // namespace

void setIoFailure(IoOp op, int afterCalls, int errnoValue) {
  FaultSlot& slot = faultSlot();
  slot.armed.store(false, std::memory_order_release);
  slot.op = op;
  slot.errnoValue = errnoValue;
  slot.remaining.store(afterCalls, std::memory_order_release);
  slot.fired.store(0, std::memory_order_release);
  slot.armed.store(true, std::memory_order_release);
}

void clearIoFailure() {
  faultSlot().armed.store(false, std::memory_order_release);
}

int ioFailuresFired() {
  return faultSlot().fired.load(std::memory_order_acquire);
}

void writeAll(int fd, std::span<const std::uint8_t> bytes,
              const std::string& path, const char* what) {
  if (faultFires(IoOp::PartialWrite)) {
    // Worst-case torn write: half the frame reaches the file, then the
    // device fails. appendDurable's rollback must erase the fragment.
    const std::size_t half = bytes.size() / 2;
    std::size_t off = 0;
    while (off < half) {
      const ssize_t n = ::write(fd, bytes.data() + off, half - off);
      if (n < 0) {
        break;  // the injected error below still describes the failure
      }
      off += static_cast<std::size_t>(n);
    }
    errno = faultSlot().errnoValue;
    throw Error(std::string(what) + " write failed: " + path + ": " +
                errnoText());
  }
  if (faultFires(IoOp::Write)) {
    errno = faultSlot().errnoValue;
    throw Error(std::string(what) + " write failed: " + path + ": " +
                errnoText());
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw Error(std::string(what) + " write failed: " + path + ": " +
                  errnoText());
    }
    off += static_cast<std::size_t>(n);
  }
}

void fsyncOrThrow(int fd, const std::string& path, const char* what) {
  if (faultFires(IoOp::Fsync)) {
    errno = faultSlot().errnoValue;
    throw Error(std::string(what) + " fsync failed: " + path + ": " +
                errnoText());
  }
  if (::fsync(fd) != 0) {
    throw Error(std::string(what) + " fsync failed: " + path + ": " +
                errnoText());
  }
}

void syncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

void atomicWrite(const std::string& path, std::span<const std::uint8_t> content,
                 const char* what) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error(std::string("cannot create ") + what + " temp file: " + tmp +
                ": " + errnoText());
  }
  try {
    writeAll(fd, content, tmp, what);
    fsyncOrThrow(fd, tmp, what);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errnoText();
    ::unlink(tmp.c_str());
    throw Error(std::string("cannot rename ") + what +
                " temp file into place: " + path + ": " + why);
  }
  syncParentDir(path);
}

void appendWithRollback(int fd, std::uint64_t end,
                        std::span<const std::uint8_t> bytes,
                        const std::string& path, const char* what) {
  try {
    writeAll(fd, bytes, path, what);
  } catch (const Error& e) {
    rollBack(fd, end, e);
    throw;
  }
}

void syncWithRollback(int fd, std::uint64_t committed, const std::string& path,
                      const char* what) {
  try {
    fsyncOrThrow(fd, path, what);
  } catch (const Error& e) {
    rollBack(fd, committed, e);
    throw;
  }
}

}  // namespace nodebench::campaign::io
