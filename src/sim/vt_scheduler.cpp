#include "sim/vt_scheduler.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "trace/trace.hpp"

// Cooperative mode runs every rank as a fiber on the calling thread. On
// x86-64 a handoff is nodebench_vt_switch below, which saves registers
// only; other architectures use POSIX ucontext. AddressSanitizer and
// ThreadSanitizer builds run it too: every switch goes through their
// fiber hooks. Cooperative mode is unchecked under MemorySanitizer, so
// such builds compile it out and always run Mode::Threads.
#if defined(__SANITIZE_ADDRESS__)
#define NODEBENCH_VT_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define NODEBENCH_VT_TSAN 1
#endif
#if defined(__SANITIZE_MEMORY__)
#define NODEBENCH_VT_MSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NODEBENCH_VT_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define NODEBENCH_VT_TSAN 1
#endif
#if __has_feature(memory_sanitizer)
#define NODEBENCH_VT_MSAN 1
#endif
#endif

#if defined(__linux__) && !defined(NODEBENCH_VT_MSAN)
#define NODEBENCH_VT_COOP 1
#else
#define NODEBENCH_VT_COOP 0
#endif

#if NODEBENCH_VT_COOP
#include <memory>
#include <vector>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif
#ifndef NDEBUG
#include <signal.h>

#include <cassert>
#endif
#if defined(NODEBENCH_VT_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(NODEBENCH_VT_TSAN)
#include <sanitizer/tsan_interface.h>
#endif
#endif

#if NODEBENCH_VT_COOP && defined(__x86_64__)
// nodebench_vt_switch(void** fromSp, void* toSp) suspends the running
// fiber and resumes another. It pushes the SysV callee-saved registers and
// the MXCSR and x87 control words, stores the stack pointer in *fromSp,
// loads toSp and pops the same frame from there, returning into the
// resumed fiber. The call itself clobbers every other register, and the
// signal mask is left alone (DESIGN.md §12).
//
// A new fiber's first switch returns into nodebench_vt_fiber_start (see
// initialFrame), which calls r14(r12, r13), the trampoline with the
// scheduler and the rank. The trampoline never returns; ud2 traps if it
// does, and `.cfi_undefined rip` ends every unwind here.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl nodebench_vt_switch
  .hidden nodebench_vt_switch
  .type nodebench_vt_switch, @function
nodebench_vt_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size nodebench_vt_switch, .-nodebench_vt_switch

  .p2align 4
  .globl nodebench_vt_fiber_start
  .hidden nodebench_vt_fiber_start
  .type nodebench_vt_fiber_start, @function
nodebench_vt_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  movq %r13, %rsi
  callq *%r14
  ud2
  .cfi_endproc
  .size nodebench_vt_fiber_start, .-nodebench_vt_fiber_start
  .popsection
)");

extern "C" {
[[gnu::visibility("hidden")]] void nodebench_vt_switch(void** fromSp,
                                                      void* toSp);
[[gnu::visibility("hidden")]] void nodebench_vt_fiber_start();
}
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

namespace {

#if defined(__x86_64__)
/// Builds the frame nodebench_vt_switch pops when it first resumes a new
/// fiber, at the top of `stack`, and returns its stack pointer: the
/// creating thread's MXCSR and x87 control words, r14 = `entry`,
/// r13 = `rank`, r12 = `self`, rbx = r15 = 0, rbp = 0 (the end of the
/// frame-pointer chain), and a return into nodebench_vt_fiber_start. The
/// switch's `ret` leaves rsp at the 16-byte aligned top, so the stub's
/// call meets the ABI's alignment.
void* initialFrame(char* stack, std::size_t bytes,
                   void (*entry)(VirtualTimeScheduler*, int),
                   VirtualTimeScheduler* self, int rank) {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87cw = 0;
  asm("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87cw));
  const std::uint64_t frame[8] = {
      mxcsr | (std::uint64_t{x87cw} << 32),
      0,  // r15
      reinterpret_cast<std::uintptr_t>(entry),
      static_cast<std::uint64_t>(rank),
      reinterpret_cast<std::uintptr_t>(self),
      0,  // rbx
      0,  // rbp
      reinterpret_cast<std::uintptr_t>(&nodebench_vt_fiber_start),
  };
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack) + bytes) & ~std::uintptr_t{15};
  void* sp = reinterpret_cast<void*>(top - sizeof frame);
  std::memcpy(sp, frame, sizeof frame);
  return sp;
}
#else
/// The ucontext counterpart of initialFrame. makecontext passes ints
/// only, so `entry` gets the scheduler pointer as two 32-bit halves.
/// getcontext returns twice, so it stays out of the caller's loop.
void initialContext(ucontext_t& ctx, char* stack, std::size_t bytes,
                    void (*entry)(unsigned, unsigned, int),
                    VirtualTimeScheduler* self, int rank) {
  NB_ENSURES(getcontext(&ctx) == 0);
  ctx.uc_stack.ss_sp = stack;
  ctx.uc_stack.ss_size = bytes;
  ctx.uc_link = nullptr;
  const auto bits = reinterpret_cast<std::uintptr_t>(self);
  makecontext(&ctx, reinterpret_cast<void (*)()>(entry), 3,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu), rank);
}
#endif

#ifndef NDEBUG
sigset_t currentSignalMask() {
  sigset_t mask;
  sigemptyset(&mask);
  pthread_sigmask(SIG_SETMASK, nullptr, &mask);
  return mask;
}

bool sameSignalMask(const sigset_t& a, const sigset_t& b) {
  for (int sig = 1; sig < NSIG; ++sig) {
    if (sigismember(&a, sig) != sigismember(&b, sig)) {
      return false;
    }
  }
  return true;
}
#endif

}  // namespace

/// The execution contexts of one cooperative run: a fiber per rank, and
/// `main`, the thread running the loop in runCooperative.
struct VirtualTimeScheduler::CoopRuntime {
  struct Fiber {
#if defined(__x86_64__)
    void* sp = nullptr;  ///< Saved stack pointer while suspended.
#else
    ucontext_t ctx{};
#endif
    std::unique_ptr<char[]> stack;  ///< Null for `main`.
    // Sanitizer state, unused in other builds. ASan learns `main`'s stack
    // bounds when `main` first switches away.
    const void* stackBottom = nullptr;
    std::size_t stackSize = 0;
    void* fakeStack = nullptr;  ///< ASan fake stack while suspended.
    void* tsanFiber = nullptr;
  };
  /// 512 KiB per rank: rank functions reach resolvePath/topology code with
  /// modest frames, so this is generous headroom. ASan's redzones enlarge
  /// every frame (a 256 KiB-deep recursion overflows 512 KiB under ASan),
  /// so its builds get 4x. The stack is left uninitialised: a run touches
  /// only the pages its frames use.
#if defined(NODEBENCH_VT_ASAN)
  static constexpr std::size_t kStackBytes = 2048u * 1024u;
#else
  static constexpr std::size_t kStackBytes = 512u * 1024u;
#endif

  CoopRuntime(VirtualTimeScheduler* self, const std::vector<ProcessFn>& run)
      : fibers(run.size()), fns(&run) {
#if defined(NODEBENCH_VT_TSAN)
    main.tsanFiber = __tsan_get_current_fiber();
#endif
    for (std::size_t i = 0; i < fibers.size(); ++i) {
      Fiber& f = fibers[i];
      f.stack = std::make_unique_for_overwrite<char[]>(kStackBytes);
      f.stackBottom = f.stack.get();
      f.stackSize = kStackBytes;
      const int rank = static_cast<int>(i);
#if defined(__x86_64__)
      f.sp = initialFrame(f.stack.get(), kStackBytes, &coopTrampoline, self,
                          rank);
#else
      initialContext(f.ctx, f.stack.get(), kStackBytes,
                     [](unsigned hi, unsigned lo, int r) {
                       coopTrampoline(
                           reinterpret_cast<VirtualTimeScheduler*>(
                               (std::uintptr_t{hi} << 32) |
                               std::uintptr_t{lo}),
                           r);
                     },
                     self, rank);
#endif
#if defined(NODEBENCH_VT_TSAN)
      f.tsanFiber = __tsan_create_fiber(0);
#endif
    }
  }

  ~CoopRuntime() {
#if defined(NODEBENCH_VT_TSAN)
    for (Fiber& f : fibers) {
      __tsan_destroy_fiber(f.tsanFiber);
    }
#endif
  }

  CoopRuntime(const CoopRuntime&) = delete;
  CoopRuntime& operator=(const CoopRuntime&) = delete;

  /// Suspends `from` and resumes `to`; returns when something resumes
  /// `from`. A finished fiber passes `leaving`: nothing resumes it.
  void switchTo(Fiber& from, Fiber& to, bool leaving = false) {
#if defined(NODEBENCH_VT_ASAN)
    switchingFrom = &from;
    __sanitizer_start_switch_fiber(leaving ? nullptr : &from.fakeStack,
                                   to.stackBottom, to.stackSize);
#endif
#if defined(NODEBENCH_VT_TSAN)
    __tsan_switch_to_fiber(to.tsanFiber, 0);
#endif
    (void)leaving;
#if defined(__x86_64__)
    nodebench_vt_switch(&from.sp, to.sp);
#else
    NB_ENSURES(swapcontext(&from.ctx, &to.ctx) == 0);
#endif
    arrived(from);
  }

  /// Completes a switch in the context it resumed, `self`.
  void arrived(Fiber& self) {
#if defined(NODEBENCH_VT_ASAN)
    __sanitizer_finish_switch_fiber(self.fakeStack,
                                    &switchingFrom->stackBottom,
                                    &switchingFrom->stackSize);
#else
    (void)self;
#endif
  }

  Fiber main;
  std::vector<Fiber> fibers;
  const std::vector<ProcessFn>* fns;
  Fiber* switchingFrom = nullptr;  ///< ASan: the context a switch left.
};

/// Every fiber starts here. processBody catches everything a process
/// function can throw, so no exception unwinds past this frame. A finished
/// fiber switches back to the loop in runCooperative for good.
void VirtualTimeScheduler::coopTrampoline(VirtualTimeScheduler* self,
                                          int rank) {
  CoopRuntime& rt = *self->coop_;
  CoopRuntime::Fiber& fiber = rt.fibers[static_cast<std::size_t>(rank)];
  rt.arrived(fiber);
  self->processBody(rank, (*rt.fns)[static_cast<std::size_t>(rank)]);
  rt.switchTo(fiber, rt.main, /*leaving=*/true);
  std::abort();  // unreachable: nothing resumes a finished fiber
}

void VirtualTimeScheduler::coopHandOff(int rank) {
  coop_->switchTo(coop_->fibers[static_cast<std::size_t>(rank)],
                  coop_->fibers[static_cast<std::size_t>(coopRunner_)]);
}

void VirtualTimeScheduler::runCooperative(const std::vector<ProcessFn>& fns) {
#ifndef NDEBUG
  const sigset_t maskAtStart = currentSignalMask();
#endif
  coop_ = std::make_unique<CoopRuntime>(this, fns);
  CoopRuntime& rt = *coop_;
  coopActive_ = true;
  // Running fibers hand off to each other directly (coopHandOff), so
  // control comes back here only when a fiber finishes. The loop starts
  // rank 0, then after each finished fiber resumes whichever rank the
  // finishing fiber marked Running, until none is.
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
    rt.switchTo(rt.main, rt.fibers[static_cast<std::size_t>(next)]);
  }
  if (aborted_) {
    // Mirror of thread mode's "every thread wakes and unwinds": resume the
    // remaining fibers in rank order; each observes aborted_, throws, and
    // finishes through processBody's catch.
    for (std::size_t i = 0; i < rt.fibers.size(); ++i) {
      while (slots_[i].state != State::Finished) {
        rt.switchTo(rt.main, rt.fibers[i]);
      }
    }
  }
  coopActive_ = false;
  coop_.reset();
#ifndef NDEBUG
  // The switch does not save the signal mask, which is sound only while
  // no rank changes it.
  assert(sameSignalMask(maskAtStart, currentSignalMask()));
#endif
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
