#include "sim/vt_scheduler.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "trace/trace.hpp"

// Cooperative mode uses POSIX ucontext fibers. Fiber stack switches are
// invisible to the sanitizers' shadow-stack bookkeeping (tsan would need
// __tsan_switch_to_fiber annotations, asan fake-stack equivalents), and
// the whole point of the sanitized builds is to check the thread-mode
// handoffs — so cooperative support is compiled out under any sanitizer
// and those builds always run Mode::Threads.
#if defined(__linux__)
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_MEMORY__)
#define NODEBENCH_VT_COOP 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(memory_sanitizer)
#define NODEBENCH_VT_COOP 0
#else
#define NODEBENCH_VT_COOP 1
#endif
#else
#define NODEBENCH_VT_COOP 1
#endif
#else
#define NODEBENCH_VT_COOP 0
#endif

#if NODEBENCH_VT_COOP
#include <ucontext.h>

#include <memory>
#include <vector>
#endif

namespace nodebench::sim {

namespace {

std::string deadlockMessage(const std::string& reason,
                            const std::vector<RankStateSnapshot>& ranks) {
  std::string msg = reason;
  for (const RankStateSnapshot& r : ranks) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\n  rank %d: %s at t=%.3f us", r.rank,
                  r.state.c_str(), r.clock.us());
    msg += buf;
  }
  return msg;
}

/// Scoped lock that is a no-op in cooperative mode: there, every process
/// runs on the calling thread and the scheduler state needs no mutex.
struct ModeLock {
  std::unique_lock<std::mutex> lock;
  ModeLock(std::mutex& mu, bool cooperative) {
    if (!cooperative) {
      lock = std::unique_lock(mu);
    }
  }
  [[nodiscard]] std::unique_lock<std::mutex>* ptr() {
    return lock.owns_lock() ? &lock : nullptr;
  }
};

}  // namespace

#if NODEBENCH_VT_COOP

/// Fiber contexts of one cooperative run. The loop in runCooperative owns
/// `main`; each rank's continuation lives in its fiber's `ctx` (the
/// initial makecontext before first resume, the suspension point inside
/// waitUntilRunning afterwards).
struct VirtualTimeScheduler::CoopRuntime {
  struct Fiber {
    ucontext_t ctx;
    std::unique_ptr<char[]> stack;
  };
  /// 512 KiB per rank: rank functions reach resolvePath/topology code with
  /// modest frames, so this is generous headroom; Linux commits pages
  /// lazily, so untouched stack costs address space only.
  static constexpr std::size_t kStackBytes = 512u * 1024u;

  ucontext_t main;
  std::vector<Fiber> fibers;
  const std::vector<ProcessFn>* fns = nullptr;
};

/// makecontext passes ints only; the scheduler pointer travels as two
/// 32-bit halves (the portable ucontext idiom). processBody catches
/// everything a process function can throw, so no exception ever unwinds
/// past the fiber's root frame; returning resumes uc_link == the
/// scheduler loop's context.
void VirtualTimeScheduler::coopTrampoline(unsigned int hi, unsigned int lo,
                                          int rank) {
  auto* self = reinterpret_cast<VirtualTimeScheduler*>(
      (static_cast<std::uintptr_t>(hi) << 32) |
      static_cast<std::uintptr_t>(lo));
  self->processBody(rank,
                    (*self->coop_->fns)[static_cast<std::size_t>(rank)]);
}

void VirtualTimeScheduler::coopHandOff(int rank) {
  CoopRuntime::Fiber& from = coop_->fibers[static_cast<std::size_t>(rank)];
  CoopRuntime::Fiber& to =
      coop_->fibers[static_cast<std::size_t>(coopRunner_)];
  NB_ENSURES(swapcontext(&from.ctx, &to.ctx) == 0);
}

void VirtualTimeScheduler::runCooperative(const std::vector<ProcessFn>& fns) {
  coop_ = std::make_unique<CoopRuntime>();
  coop_->fns = &fns;
  coop_->fibers.resize(fns.size());
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    CoopRuntime::Fiber& f = coop_->fibers[i];
    f.stack = std::make_unique<char[]>(CoopRuntime::kStackBytes);
    NB_ENSURES(getcontext(&f.ctx) == 0);
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = CoopRuntime::kStackBytes;
    f.ctx.uc_link = &coop_->main;
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(&coopTrampoline), 3,
                static_cast<unsigned int>(self >> 32),
                static_cast<unsigned int>(self & 0xffffffffu),
                static_cast<int>(i));
  }
  coopActive_ = true;
  // Running fibers hand off to each other directly (coopHandOff), so
  // control comes back here only when a fiber returns through uc_link.
  // The loop starts rank 0, then after each finished fiber resumes
  // whichever rank the finishing fiber marked Running, until none is.
  while (true) {
    int next = -1;
    for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
      if (slots_[i].state == State::Running) {
        next = i;
        break;
      }
    }
    if (next < 0) {
      break;
    }
    NB_ENSURES(swapcontext(&coop_->main,
                           &coop_->fibers[static_cast<std::size_t>(next)]
                                .ctx) == 0);
  }
  if (aborted_) {
    // Mirror of thread mode's "every thread wakes and unwinds": resume the
    // remaining fibers in rank order; each observes aborted_, throws, and
    // finishes through processBody's catch.
    for (std::size_t i = 0; i < coop_->fibers.size(); ++i) {
      while (slots_[i].state != State::Finished) {
        NB_ENSURES(swapcontext(&coop_->main, &coop_->fibers[i].ctx) == 0);
      }
    }
  }
  coopActive_ = false;
  coop_.reset();
}

bool VirtualTimeScheduler::cooperativeSupported() { return true; }

#else  // !NODEBENCH_VT_COOP

struct VirtualTimeScheduler::CoopRuntime {};

void VirtualTimeScheduler::coopHandOff(int) {
  throw Error("cooperative scheduling not compiled in");
}

void VirtualTimeScheduler::runCooperative(const std::vector<ProcessFn>&) {
  throw Error("cooperative scheduling not compiled in");
}

bool VirtualTimeScheduler::cooperativeSupported() { return false; }

#endif  // NODEBENCH_VT_COOP

VirtualTimeScheduler::VirtualTimeScheduler() : mode_(defaultMode()) {}

VirtualTimeScheduler::~VirtualTimeScheduler() = default;

VirtualTimeScheduler::Mode VirtualTimeScheduler::defaultMode() {
  static const Mode mode = [] {
    if (!cooperativeSupported()) {
      return Mode::Threads;
    }
    if (const char* env = std::getenv("NODEBENCH_VT_MODE")) {
      if (std::strcmp(env, "threads") == 0) {
        return Mode::Threads;
      }
      if (std::strcmp(env, "cooperative") == 0) {
        return Mode::Cooperative;
      }
    }
    return Mode::Cooperative;
  }();
  return mode;
}

void VirtualTimeScheduler::setMode(Mode m) {
  NB_EXPECTS_MSG(!coopActive_, "cannot change mode during a run");
  mode_ = (m == Mode::Cooperative && !cooperativeSupported()) ? Mode::Threads
                                                              : m;
}

DeadlockError::DeadlockError(const std::string& reason,
                             std::vector<RankStateSnapshot> ranks)
    : Error(deadlockMessage(reason, ranks)), ranks_(std::move(ranks)) {}

Duration VirtualProcess::now() const {
  auto& s = *sched_;
  ModeLock lock(s.mu_, s.coopActive_);
  return s.slots_[rank_].clock;
}

void VirtualProcess::advance(Duration dt) {
  NB_EXPECTS(dt >= Duration::zero());
  auto& s = *sched_;
  ModeLock lock(s.mu_, s.coopActive_);
  s.slots_[rank_].clock += dt;
  s.yieldIfEarlier(lock.ptr(), rank_);
}

void VirtualProcess::advanceTo(Duration t) {
  auto& s = *sched_;
  ModeLock lock(s.mu_, s.coopActive_);
  auto& clock = s.slots_[rank_].clock;
  clock = max(clock, t);
  s.yieldIfEarlier(lock.ptr(), rank_);
}

void VirtualProcess::blockUntil(const std::function<bool()>& pred) {
  NB_EXPECTS(pred != nullptr);
  auto& s = *sched_;
  ModeLock lock(s.mu_, s.coopActive_);
  while (!pred()) {
    s.slots_[rank_].state = VirtualTimeScheduler::State::Blocked;
    const int next = s.pickNextLocked();
    if (next < 0) {
      auto ranks = s.snapshotLocked();
      if (!s.firstError_) {
        s.firstError_ = std::make_exception_ptr(DeadlockError(
            "virtual-time deadlock: every live process is blocked", ranks));
      }
      s.abortAllLocked();
      throw DeadlockError("virtual-time deadlock detected by rank " +
                              std::to_string(rank_),
                          std::move(ranks));
    }
    s.switchToLocked(next);
    s.waitUntilRunning(lock.ptr(), rank_);
  }
}

void VirtualProcess::wake(int otherRank) {
  auto& s = *sched_;
  NB_EXPECTS(otherRank >= 0 &&
             static_cast<std::size_t>(otherRank) < s.slots_.size());
  ModeLock lock(s.mu_, s.coopActive_);
  if (s.slots_[otherRank].state == VirtualTimeScheduler::State::Blocked) {
    s.slots_[otherRank].state = VirtualTimeScheduler::State::Ready;
  }
}

int VirtualTimeScheduler::pickNextLocked() const {
  int best = -1;
  for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
    if (slots_[i].state != State::Ready) {
      continue;
    }
    if (best < 0 || slots_[i].clock < slots_[best].clock) {
      best = i;
    }
  }
  return best;
}

void VirtualTimeScheduler::switchToLocked(int next) {
  NB_EXPECTS(next >= 0 && static_cast<std::size_t>(next) < slots_.size());
  NB_ENSURES(slots_[next].state == State::Ready);
  slots_[next].state = State::Running;
  ++switches_;
  if (coopActive_) {
    coopRunner_ = next;
  } else {
    cv_.notify_all();
  }
}

void VirtualTimeScheduler::waitUntilRunning(
    std::unique_lock<std::mutex>* lock, int rank) {
  if (lock != nullptr) {
    cv_.wait(*lock, [&] {
      return aborted_ || slots_[rank].state == State::Running;
    });
  } else if (!aborted_ && slots_[rank].state != State::Running) {
    // Only a handoff that marked this rank Running, or runCooperative's
    // abort unwind, resumes this fiber, so one swap suffices.
    coopHandOff(rank);
  }
  if (aborted_) {
    throw Error("virtual-time system aborted (see primary error)");
  }
  NB_ENSURES(slots_[rank].state == State::Running);
}

void VirtualTimeScheduler::checkWatchdogLocked(int rank) {
  if (slots_[rank].clock <= watchdog_) {
    return;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "virtual-time watchdog expired: rank %d reached t=%.3f us "
                "(deadline %.3f us)",
                rank, slots_[rank].clock.us(), watchdog_.us());
  if (!firstError_) {
    firstError_ = std::make_exception_ptr(
        TimeoutError(deadlockMessage(buf, snapshotLocked())));
  }
  abortAllLocked();
  throw TimeoutError(buf);
}

void VirtualTimeScheduler::yieldIfEarlier(
    std::unique_lock<std::mutex>* lock, int rank) {
  // Every virtual-time advance funnels through here, so this is the one
  // place the watchdog needs to observe runaway clocks.
  checkWatchdogLocked(rank);
  // Re-enter the ready pool; if we are still the earliest runnable process
  // we simply keep running, otherwise hand over.
  slots_[rank].state = State::Ready;
  const int next = pickNextLocked();
  NB_ENSURES(next >= 0);  // at least this process is Ready
  if (next == rank) {
    slots_[rank].state = State::Running;
    return;
  }
  switchToLocked(next);
  waitUntilRunning(lock, rank);
}

void VirtualTimeScheduler::abortAllLocked() {
  aborted_ = true;
  if (!coopActive_) {
    cv_.notify_all();
  }
}

std::vector<RankStateSnapshot> VirtualTimeScheduler::snapshotLocked() const {
  std::vector<RankStateSnapshot> out;
  out.reserve(slots_.size());
  for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
    const char* name = "?";
    switch (slots_[i].state) {
      case State::Ready: name = "ready"; break;
      case State::Running: name = "running"; break;
      case State::Blocked: name = "blocked"; break;
      case State::Finished: name = "finished"; break;
    }
    out.push_back(RankStateSnapshot{i, name, slots_[i].clock});
  }
  return out;
}

void VirtualTimeScheduler::setWatchdog(Duration deadline) {
  NB_EXPECTS(deadline > Duration::zero());
  watchdog_ = deadline;
}

void VirtualTimeScheduler::processBody(int rank, const ProcessFn& fn) {
  VirtualProcess self(*this, rank);
  try {
    {
      ModeLock lock(mu_, coopActive_);
      waitUntilRunning(lock.ptr(), rank);
    }
    fn(self);
    ModeLock lock(mu_, coopActive_);
    slots_[rank].state = State::Finished;
    const int next = pickNextLocked();
    if (next >= 0) {
      switchToLocked(next);
    } else {
      // No runnable process remains. If someone is still blocked, the
      // system can never finish: deadlock.
      bool anyBlocked = false;
      for (const auto& slot : slots_) {
        anyBlocked = anyBlocked || slot.state == State::Blocked;
      }
      if (anyBlocked) {
        if (!firstError_) {
          firstError_ = std::make_exception_ptr(DeadlockError(
              "virtual-time deadlock: last runnable process finished while "
              "others are still blocked",
              snapshotLocked()));
        }
        abortAllLocked();
      }
    }
  } catch (...) {
    ModeLock lock(mu_, coopActive_);
    if (!firstError_) {
      firstError_ = std::current_exception();
    }
    slots_[rank].state = State::Finished;
    abortAllLocked();
  }
}

void VirtualTimeScheduler::runThreads(const std::vector<ProcessFn>& fns) {
  std::vector<std::thread> threads;
  threads.reserve(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    threads.emplace_back([this, i, &fns] {
      processBody(static_cast<int>(i), fns[i]);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

void VirtualTimeScheduler::run(const std::vector<ProcessFn>& fns) {
  NB_EXPECTS(!fns.empty());
  slots_.assign(fns.size(), Slot{});
  aborted_ = false;
  firstError_ = nullptr;
  switches_ = 0;  // per-run count: see switchCount()
  // Rank 0 starts as the unique runner (all clocks are zero; ties break by
  // rank, so this matches pickNextLocked()).
  slots_[0].state = State::Running;

  if (mode_ == Mode::Cooperative && cooperativeSupported()) {
    runCooperative(fns);
  } else {
    runThreads(fns);
  }
  // run() is called on the tracing scope's own thread, and both modes are
  // fully drained by now — safe to read switches_ without the lock and to
  // record into the thread-local buffer.
  if (trace::TraceBuffer* tb = trace::current()) {
    tb->count("vt.runs");
    tb->count("vt.switches", switches_);
  }
  if (firstError_) {
    std::rethrow_exception(firstError_);
  }
}

}  // namespace nodebench::sim
