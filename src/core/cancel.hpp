#pragma once
/// \file cancel.hpp
/// \brief Cooperative cancellation for long-running measurement work.
///
/// The measurement harnesses are crash-safe (campaign journals) but, until
/// this layer, not *interruptible*: the only ways to stop a campaign were
/// to let it finish or to kill the process. A `CancelToken` is the
/// cooperative alternative shared by every consumer that needs to stop a
/// harness mid-flight:
///
///  - the CLI's SIGINT/SIGTERM handler for `--journal` runs (finish the
///    in-flight cell, fsync the journal, exit with
///    `kInterruptedExitCode` so `--resume` picks up cleanly);
///  - the serve daemon's per-request wall-clock watchdog (cancel a stuck
///    request without touching its neighbours);
///  - the serve daemon's graceful drain (journal in-flight requests on
///    SIGTERM instead of completing them).
///
/// The contract is deliberately cell-grained: a set token stops *new*
/// cells from starting, while cells already measuring run to completion
/// and are journalled — cancellation never tears a record and a resumed
/// run is byte-identical to an uninterrupted one (the cells that were
/// skipped are simply measured later, with identity-derived seeds).
///
/// `requested()` is a single relaxed atomic load, cheap enough to poll
/// from the per-cell hot path; `set()` is async-signal-safe (a lock-free
/// atomic store), so signal handlers may call it directly.

#include <atomic>

#include "core/error.hpp"

namespace nodebench {

/// Why a cancellation was requested; carried by the token and reported in
/// the CancelledError text so callers can distinguish an operator
/// interrupt from a watchdog expiry or a daemon drain.
enum class CancelReason : int {
  None = 0,
  Interrupt = 1,  ///< SIGINT/SIGTERM on a one-shot CLI run.
  Watchdog = 2,   ///< A per-request wall-clock budget expired.
  Drain = 3,      ///< The serve daemon is shutting down gracefully.
};

[[nodiscard]] const char* cancelReasonName(CancelReason reason);

/// Thrown by a harness that observed a cancellation request (after the
/// in-flight cells completed and were journalled).
class CancelledError : public Error {
 public:
  explicit CancelledError(CancelReason reason);

  [[nodiscard]] CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

/// One cancellation flag. First `set()` wins: a token that was cancelled
/// for one reason keeps that reason (a drain arriving after a watchdog
/// expiry must not re-label the incident).
class CancelToken {
 public:
  /// Requests cancellation. Async-signal-safe; idempotent (the first
  /// reason is kept).
  void set(CancelReason reason) {
    int expected = static_cast<int>(CancelReason::None);
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_relaxed);
  }

  [[nodiscard]] bool requested() const {
    return reason_.load(std::memory_order_relaxed) !=
           static_cast<int>(CancelReason::None);
  }

  [[nodiscard]] CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }

  /// Throws CancelledError when cancellation has been requested.
  void throwIfRequested() const {
    if (requested()) {
      throw CancelledError(reason());
    }
  }

 private:
  std::atomic<int> reason_{static_cast<int>(CancelReason::None)};
};

/// The process-wide token that SIGINT and SIGTERM set once
/// installInterruptHandlers() has run. Journaled `table`/`export` runs,
/// `supervise` and `serve` all stop on it.
[[nodiscard]] CancelToken& interruptToken();

/// Routes SIGINT and SIGTERM to interruptToken() instead of the default
/// die-on-signal. A run that cannot resume (no journal) leaves them be.
void installInterruptHandlers();

/// Exit code of a one-shot CLI run stopped by SIGINT/SIGTERM with its
/// journal intact (distinct from 1 = error and from
/// campaign::Journal::kCrashExitCode = 42, the crash-injection hook), so
/// scripts can tell "interrupted, resume me" from "failed".
inline constexpr int kInterruptedExitCode = 43;

}  // namespace nodebench
