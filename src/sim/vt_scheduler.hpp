#pragma once
/// \file vt_scheduler.hpp
/// \brief Virtual-time scheduler: runs N "rank processes" whose *simulated*
/// clocks are coordinated so that only the runnable process with the
/// smallest local virtual time executes at any moment.
///
/// This is the substrate of the message-passing runtime (`mpisim`). The
/// design trades parallel host execution for determinism: exactly one
/// process runs at a time, scheduling order is (virtual time, rank), so a
/// given program produces bit-identical simulated timings on every run.
///
/// Two execution modes realize the same scheduling contract (DESIGN.md §12):
///  - `Mode::Threads` — one OS thread per rank, handoffs via mutex +
///    condition variable. The reference implementation.
///  - `Mode::Cooperative` — all ranks run as fibers on the calling thread;
///    a handoff switches from the yielding fiber straight into the next
///    runner's, saving only registers (x86-64; ucontext elsewhere),
///    instead of a kernel-level wake+sleep, which removes the dominant
///    wall-clock cost of simulated benchmarks on small machines. Scheduling
///    decisions flow through the *same* pick/switch code as thread mode, so
///    clock sequences, `switchCount()` and error behavior are identical —
///    the `simcore` cross-check suite locks this in.
/// The default mode is Cooperative where supported (overridable via the
/// `NODEBENCH_VT_MODE=threads|cooperative` environment knob and
/// `setMode`). ASan and TSan builds run both modes; a MemorySanitizer build
/// runs Threads only.
///
/// Blocking operations (e.g. a receive with no matching send) are expressed
/// through `blockUntil(pred)`: the process leaves the runnable set until
/// another process calls `wake()` on it, after which the predicate is
/// re-evaluated while the process is the unique runner (so predicate state
/// needs no further synchronization). If every live process is blocked the
/// scheduler reports deadlock by throwing in all participants.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace nodebench::sim {

/// Snapshot of one rank process at the moment a scheduling failure was
/// detected. Carried by DeadlockError / TimeoutError so injected-fault
/// hangs and genuine runtime bugs are distinguishable from the error
/// alone: which ranks were blocked, and at what virtual time.
struct RankStateSnapshot {
  int rank = -1;
  std::string state;             ///< "ready" / "running" / "blocked" / "finished".
  Duration clock = Duration::zero();  ///< Local virtual time at detection.
};

/// Thrown in every participating process when the virtual-time system
/// deadlocks (all live processes blocked). The message lists the per-rank
/// state table; `ranks()` exposes it structurally.
class DeadlockError : public Error {
 public:
  using Error::Error;
  DeadlockError(const std::string& reason,
                std::vector<RankStateSnapshot> ranks);

  [[nodiscard]] const std::vector<RankStateSnapshot>& ranks() const {
    return ranks_;
  }

 private:
  std::vector<RankStateSnapshot> ranks_;
};

/// Thrown in every participating process when a process's virtual clock
/// exceeds the scheduler's watchdog deadline — the virtual-time analogue
/// of a wall-clock timeout. Distinguishes "the system is livelocked /
/// runaway" (e.g. an injected fault causing endless retransmits) from a
/// true deadlock, instead of hanging or mis-reporting.
class TimeoutError : public Error {
 public:
  using Error::Error;
};

class VirtualTimeScheduler;

/// Handle through which a rank process interacts with virtual time.
/// Only valid inside the process function it was passed to.
class VirtualProcess {
 public:
  [[nodiscard]] int rank() const { return rank_; }

  /// Current local virtual time.
  [[nodiscard]] Duration now() const;

  /// Advances local time by `dt` and yields if another runnable process is
  /// now earlier. Precondition: dt >= 0.
  void advance(Duration dt);

  /// Advances local time to `max(now, t)` and yields.
  void advanceTo(Duration t);

  /// Blocks until `pred()` is true. The predicate is evaluated only while
  /// this process is the unique runner; it is re-checked each time some
  /// other process calls `wake(rank())`.
  void blockUntil(const std::function<bool()>& pred);

  /// Marks another (possibly blocked) process as runnable so that its
  /// `blockUntil` predicate is re-evaluated.
  void wake(int otherRank);

 private:
  friend class VirtualTimeScheduler;
  VirtualProcess(VirtualTimeScheduler& sched, int rank)
      : sched_(&sched), rank_(rank) {}

  VirtualTimeScheduler* sched_;
  int rank_;
};

/// Runs a set of process functions to completion under virtual time.
class VirtualTimeScheduler {
 public:
  using ProcessFn = std::function<void(VirtualProcess&)>;

  /// How rank processes execute. Scheduling decisions (and therefore all
  /// simulated results) are identical in both modes.
  enum class Mode {
    Threads,      ///< One OS thread per rank (the reference).
    Cooperative,  ///< Fibers on the calling thread (fast path).
  };

  /// Whether Cooperative mode is compiled in: on Linux, in every build but
  /// a MemorySanitizer one.
  [[nodiscard]] static bool cooperativeSupported();

  /// Process-wide default: Cooperative where supported, overridable by the
  /// NODEBENCH_VT_MODE environment variable ("threads" / "cooperative",
  /// read once). Unsupported requests fall back to Threads.
  [[nodiscard]] static Mode defaultMode();

  // Out-of-line: CoopRuntime is cpp-private, so members needing its
  // destructor cannot be instantiated from the header.
  VirtualTimeScheduler();
  ~VirtualTimeScheduler();

  /// Selects the execution mode for subsequent runs. A Cooperative request
  /// on a build without support degrades to Threads (so callers can set
  /// unconditionally). Must not be called while a run is in flight.
  void setMode(Mode m);

  [[nodiscard]] Mode mode() const { return mode_; }

  /// Runs all processes; returns when every process function has returned.
  /// Rethrows the first exception raised by any process (by rank order of
  /// detection). Precondition: !fns.empty().
  void run(const std::vector<ProcessFn>& fns);

  /// Arms a virtual-time watchdog: if any process's local clock exceeds
  /// `deadline`, the run aborts with TimeoutError in every participant.
  /// The deadline persists across runs (scheduler configuration, not
  /// per-run state); `Duration::infinity()` (the default) disables it.
  /// Precondition: deadline > 0.
  void setWatchdog(Duration deadline);

  [[nodiscard]] Duration watchdog() const { return watchdog_; }

  /// Total number of process switches in the last completed `run`
  /// (determinism diagnostics for tests). Reset to zero at `run` entry,
  /// so back-to-back runs on one scheduler report per-run counts rather
  /// than a lifetime total. Only meaningful *between* runs: while `run`
  /// is in flight the counter is mutated under the scheduler's internal
  /// lock and a concurrent read would race. Identical in both modes for
  /// the same program (the cross-check suite's invariant).
  [[nodiscard]] std::uint64_t switchCount() const { return switches_; }

 private:
  friend class VirtualProcess;

  enum class State { Ready, Running, Blocked, Finished };

  struct Slot {
    Duration clock = Duration::zero();
    State state = State::Ready;
  };

  struct CoopRuntime;  // fiber stacks and contexts; defined in the .cpp

  // The helpers below implement one scheduling contract for both modes.
  // In thread mode the caller holds mu_ and passes the lock; in
  // cooperative mode everything runs on one OS thread, so `lock` is null
  // and mu_ is never taken.
  [[nodiscard]] int pickNextLocked() const;  // min-clock Ready; -1 if none
  void switchToLocked(int next);
  void waitUntilRunning(std::unique_lock<std::mutex>* lock, int rank);
  void yieldIfEarlier(std::unique_lock<std::mutex>* lock, int rank);
  void checkWatchdogLocked(int rank);
  void abortAllLocked();
  [[nodiscard]] std::vector<RankStateSnapshot> snapshotLocked() const;

  void processBody(int rank, const ProcessFn& fn);

  void runThreads(const std::vector<ProcessFn>& fns);
  void runCooperative(const std::vector<ProcessFn>& fns);
  /// Suspends fiber `rank` and resumes the fiber of `coopRunner_`, the
  /// rank switchToLocked just marked Running: one fiber switch per
  /// handoff (cooperative mode only).
  void coopHandOff(int rank);
  /// First C++ frame of every fiber (cooperative mode only); never
  /// returns.
  static void coopTrampoline(VirtualTimeScheduler* self, int rank);

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  bool aborted_ = false;
  std::exception_ptr firstError_;
  std::uint64_t switches_ = 0;
  Duration watchdog_ = Duration::infinity();
  Mode mode_ = Mode::Threads;
  bool coopActive_ = false;  ///< True while runCooperative is in flight.
  int coopRunner_ = -1;  ///< Cooperative mode: last rank marked Running.
  std::unique_ptr<CoopRuntime> coop_;
};

}  // namespace nodebench::sim
