#include "sim/vt_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cfenv>
#include <cstdint>
#include <vector>

namespace nodebench::sim {
namespace {

using namespace nodebench::literals;
using Mode = VirtualTimeScheduler::Mode;

TEST(VtScheduler, SingleProcessRunsToCompletion) {
  VirtualTimeScheduler sched;
  Duration finish = Duration::zero();
  sched.run({[&](VirtualProcess& p) {
    p.advance(5_us);
    finish = p.now();
  }});
  EXPECT_EQ(finish, 5_us);
}

TEST(VtScheduler, SmallestClockRunsFirst) {
  // Process 0 takes big steps, process 1 small ones; the interleaving
  // must be by virtual time, not by thread scheduling.
  VirtualTimeScheduler sched;
  std::vector<std::pair<int, double>> trace;
  const auto proc = [&trace](int id, Duration step, int steps) {
    return [&trace, id, step, steps](VirtualProcess& p) {
      for (int i = 0; i < steps; ++i) {
        p.advance(step);
        trace.emplace_back(id, p.now().us());
      }
    };
  };
  sched.run({proc(0, 10_us, 3), proc(1, 4_us, 7)});
  // The trace must be sorted by virtual time (ties allowed).
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].second, trace[i].second)
        << "entry " << i << " out of virtual-time order";
  }
  EXPECT_EQ(trace.size(), 10u);
}

TEST(VtScheduler, DeterministicAcrossRuns) {
  const auto runOnce = [](std::vector<int>& order) {
    VirtualTimeScheduler sched;
    std::vector<VirtualTimeScheduler::ProcessFn> fns;
    for (int id = 0; id < 4; ++id) {
      fns.push_back([&order, id](VirtualProcess& p) {
        for (int i = 0; i < 5; ++i) {
          p.advance(Duration::microseconds(1.0 + id * 0.3));
          order.push_back(id);
        }
      });
    }
    sched.run(fns);
    return sched.switchCount();
  };
  std::vector<int> a;
  std::vector<int> b;
  const auto switchesA = runOnce(a);
  const auto switchesB = runOnce(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(switchesA, switchesB);
}

TEST(VtScheduler, BlockUntilWokenByPeer) {
  VirtualTimeScheduler sched;
  bool flag = false;
  Duration consumerDone = Duration::zero();
  sched.run({
      [&](VirtualProcess& p) {  // consumer (rank 0)
        p.blockUntil([&] { return flag; });
        consumerDone = p.now();
      },
      [&](VirtualProcess& p) {  // producer (rank 1)
        p.advance(3_us);
        flag = true;
        p.wake(0);
      },
  });
  EXPECT_TRUE(flag);
  // The consumer never advanced its own clock; blocking does not move
  // virtual time by itself.
  EXPECT_EQ(consumerDone, Duration::zero());
}

TEST(VtScheduler, AdvanceToIsMonotone) {
  VirtualTimeScheduler sched;
  sched.run({[](VirtualProcess& p) {
    p.advanceTo(5_us);
    EXPECT_EQ(p.now(), 5_us);
    p.advanceTo(3_us);  // must not travel backwards
    EXPECT_EQ(p.now(), 5_us);
  }});
}

TEST(VtScheduler, DeadlockIsDetected) {
  VirtualTimeScheduler sched;
  const auto blocked = [](VirtualProcess& p) {
    p.blockUntil([] { return false; });
  };
  EXPECT_THROW(sched.run({blocked, blocked}), DeadlockError);
}

TEST(VtScheduler, DeadlockAfterPeerFinishes) {
  VirtualTimeScheduler sched;
  EXPECT_THROW(sched.run({
                   [](VirtualProcess& p) {
                     p.blockUntil([] { return false; });  // waits forever
                   },
                   [](VirtualProcess& p) { p.advance(1_us); },  // exits
               }),
               DeadlockError);
}

TEST(VtScheduler, ExceptionInProcessPropagates) {
  VirtualTimeScheduler sched;
  EXPECT_THROW(sched.run({
                   [](VirtualProcess&) { throw Error("boom"); },
                   [](VirtualProcess& p) {
                     // Would block forever; must be aborted, not hung.
                     p.blockUntil([] { return false; });
                   },
               }),
               Error);
}

TEST(VtScheduler, NegativeAdvanceRejected) {
  VirtualTimeScheduler sched;
  EXPECT_THROW(sched.run({[](VirtualProcess& p) {
                 p.advance(Duration::nanoseconds(-1.0));
               }}),
               PreconditionError);
}

TEST(VtScheduler, RequiresAtLeastOneProcess) {
  VirtualTimeScheduler sched;
  EXPECT_THROW(sched.run({}), PreconditionError);
}

TEST(VtScheduler, ManyProcessesAllComplete) {
  VirtualTimeScheduler sched;
  constexpr int kProcs = 16;
  std::atomic<int> completed{0};
  std::vector<VirtualTimeScheduler::ProcessFn> fns;
  for (int i = 0; i < kProcs; ++i) {
    fns.push_back([&completed, i](VirtualProcess& p) {
      for (int k = 0; k < 10; ++k) {
        p.advance(Duration::nanoseconds(10.0 * (i + 1)));
      }
      completed.fetch_add(1);
    });
  }
  sched.run(fns);
  EXPECT_EQ(completed.load(), kProcs);
}

TEST(VtScheduler, ReusableAfterRun) {
  VirtualTimeScheduler sched;
  for (int round = 0; round < 3; ++round) {
    Duration t = Duration::zero();
    sched.run({[&](VirtualProcess& p) {
      p.advance(1_us);
      t = p.now();
    }});
    EXPECT_EQ(t, 1_us);  // clocks reset each run
  }
}

TEST(VtScheduler, WatchdogFiresWhenVirtualTimeExceedsDeadline) {
  VirtualTimeScheduler sched;
  sched.setWatchdog(10_us);
  EXPECT_THROW(sched.run({[](VirtualProcess& p) {
                 for (int i = 0; i < 100; ++i) {
                   p.advance(1_us);  // crosses 10 us on the 11th step
                 }
               }}),
               TimeoutError);
}

TEST(VtScheduler, WatchdogDoesNotFireUnderDeadline) {
  VirtualTimeScheduler sched;
  sched.setWatchdog(10_us);
  Duration finish = Duration::zero();
  sched.run({[&](VirtualProcess& p) {
    p.advance(9_us);
    finish = p.now();
  }});
  EXPECT_EQ(finish, 9_us);
}

TEST(VtScheduler, WatchdogAbortsBlockedPeersToo) {
  // Rank 0 blocks on a condition only rank 1 can set; rank 1 runs past
  // the deadline first. The watchdog must abort the whole run (including
  // the blocked rank) instead of hanging.
  VirtualTimeScheduler sched;
  sched.setWatchdog(5_us);
  bool flag = false;
  EXPECT_THROW(sched.run({
                   [&](VirtualProcess& p) {
                     p.blockUntil([&] { return flag; });
                   },
                   [](VirtualProcess& p) {
                     for (int i = 0; i < 100; ++i) {
                       p.advance(1_us);
                     }
                   },
               }),
               TimeoutError);
}

TEST(VtScheduler, WatchdogMessageNamesRankAndDeadline) {
  VirtualTimeScheduler sched;
  sched.setWatchdog(2_us);
  try {
    sched.run({[](VirtualProcess& p) { p.advance(50_us); }});
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  }
}

TEST(VtScheduler, WatchdogPersistsAcrossRuns) {
  VirtualTimeScheduler sched;
  sched.setWatchdog(3_us);
  EXPECT_EQ(sched.watchdog(), 3_us);
  EXPECT_THROW(sched.run({[](VirtualProcess& p) { p.advance(4_us); }}),
               TimeoutError);
  // Still armed in the next run; within budget it stays silent.
  Duration finish = Duration::zero();
  sched.run({[&](VirtualProcess& p) {
    p.advance(2_us);
    finish = p.now();
  }});
  EXPECT_EQ(finish, 2_us);
}

TEST(VtScheduler, WatchdogRejectsNonPositiveDeadline) {
  VirtualTimeScheduler sched;
  EXPECT_THROW(sched.setWatchdog(Duration::zero()), PreconditionError);
}

TEST(VtScheduler, DeadlockErrorCarriesPerRankState) {
  VirtualTimeScheduler sched;
  try {
    sched.run({
        [](VirtualProcess& p) {
          p.advance(2_us);
          p.blockUntil([] { return false; });
        },
        [](VirtualProcess& p) { p.advance(1_us); },
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    ASSERT_EQ(e.ranks().size(), 2u);
    EXPECT_EQ(e.ranks()[0].rank, 0);
    EXPECT_EQ(e.ranks()[0].state, "blocked");
    EXPECT_EQ(e.ranks()[0].clock, 2_us);
    EXPECT_EQ(e.ranks()[1].state, "finished");
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// The switch contract, run in both execution modes: whatever a handoff
// saves and restores, a rank resumes with its own floating-point control
// state and its own, untouched stack frames.
// ---------------------------------------------------------------------------

class VtSchedulerSwitch : public ::testing::TestWithParam<Mode> {
 protected:
  void SetUp() override {
    if (GetParam() == Mode::Cooperative &&
        !VirtualTimeScheduler::cooperativeSupported()) {
      GTEST_SKIP() << "cooperative mode not supported here";
    }
    sched_.setMode(GetParam());
  }

  VirtualTimeScheduler sched_;
};

/// 1/3 in the current rounding mode. The operands are volatile so the
/// division happens at run time, after the caller's fesetround.
[[gnu::noinline]] double oneThird() {
  volatile double num = 1.0;
  volatile double den = 3.0;
  return num / den;
}

TEST_P(VtSchedulerSwitch, RoundingModeIsPerRank) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = oneThird();
  int upwardAfterResume = -1;
  double quotientAfterResume = 0.0;
  std::vector<int> peerModes;
  std::vector<double> peerQuotients;
  sched_.run({
      [&](VirtualProcess& p) {
        std::fesetround(FE_UPWARD);
        p.advance(1_us);  // rank 1 (still at t=0) runs before this resumes
        upwardAfterResume = std::fegetround();
        quotientAfterResume = oneThird();
        std::fesetround(FE_TONEAREST);
      },
      [&](VirtualProcess& p) {
        peerModes.push_back(std::fegetround());
        peerQuotients.push_back(oneThird());
        p.advance(2_us);  // hands back to rank 0, resumes after it ends
        peerModes.push_back(std::fegetround());
        peerQuotients.push_back(oneThird());
      },
  });
  EXPECT_EQ(upwardAfterResume, FE_UPWARD);
  EXPECT_GT(quotientAfterResume, nearest);  // SSE arithmetic rounds up too
  EXPECT_EQ(peerModes, (std::vector<int>{FE_TONEAREST, FE_TONEAREST}));
  EXPECT_EQ(peerQuotients, (std::vector<double>{nearest, nearest}));
  EXPECT_EQ(sched_.switchCount(), 3u);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  std::fesetround(FE_TONEAREST);  // keeps a leaked mode out of later tests
}

/// Fills a 1 KiB frame with a pattern unique to (rank, depth), yields,
/// checks the frame, recurses one level deeper, yields and checks it
/// again. `frames` records each frame's address, which also makes the
/// frame escape, so the compiler must re-read it after every yield.
void recurseAndYield(VirtualProcess& p, int depth,
                     std::vector<std::uintptr_t>& frames, int& corrupt) {
  std::array<std::uint64_t, 128> frame;
  const auto word = [&](std::size_t i) {
    return (static_cast<std::uint64_t>(p.rank()) << 48) ^
           (static_cast<std::uint64_t>(depth) << 16) ^ (i * 0x9e3779b9u);
  };
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = word(i);
  }
  frames.push_back(reinterpret_cast<std::uintptr_t>(frame.data()));
  const auto check = [&] {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      corrupt += frame[i] != word(i) ? 1 : 0;
    }
  };
  p.advance(Duration::nanoseconds(1.0));
  check();
  if (depth > 0) {
    recurseAndYield(p, depth - 1, frames, corrupt);
  }
  p.advance(Duration::nanoseconds(1.0));
  check();
}

TEST_P(VtSchedulerSwitch, DeepStacksStayIntactAcrossYields) {
  constexpr int kDepth = 256;  // 256 frames of 1 KiB: ~256 KiB per rank
  std::array<std::vector<std::uintptr_t>, 2> frames;
  std::array<int, 2> corrupt{0, 0};
  const auto rankFn = [&](int rank) {
    return [&, rank](VirtualProcess& p) {
      recurseAndYield(p, kDepth - 1, frames[static_cast<std::size_t>(rank)],
                      corrupt[static_cast<std::size_t>(rank)]);
    };
  };
  sched_.run({rankFn(0), rankFn(1)});
  EXPECT_EQ(corrupt[0], 0);
  EXPECT_EQ(corrupt[1], 0);
  // Every frame of both ranks was live at once at the deepest level, so
  // no two may overlap.
  std::vector<std::uintptr_t> all = frames[0];
  all.insert(all.end(), frames[1].begin(), frames[1].end());
  ASSERT_EQ(all.size(), 2u * kDepth);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i] - all[i - 1], sizeof(std::uint64_t) * 128)
        << "frames " << i - 1 << " and " << i << " overlap";
  }
  // 2 x 2 x kDepth advances each hand over, plus rank 0's finish.
  EXPECT_EQ(sched_.switchCount(), 4u * kDepth + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, VtSchedulerSwitch,
    ::testing::Values(Mode::Threads, Mode::Cooperative),
    [](const ::testing::TestParamInfo<Mode>& mode) {
      return mode.param == Mode::Threads ? "threads" : "cooperative";
    });

}  // namespace
}  // namespace nodebench::sim
