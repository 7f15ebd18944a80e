/// \file simcore_crosscheck_test.cpp
/// \brief Determinism cross-checks for the simulation-core fast paths
/// (ctest -L simcore; DESIGN.md §12).
///
/// Two families of invariants:
///  1. Scheduler modes: thread-mode and cooperative-mode
///     `VirtualTimeScheduler` produce identical per-rank clock sequences,
///     switch counts, and DeadlockError/TimeoutError behavior — across
///     synthetic programs and full MpiWorld runs (machines × fault
///     parameters × seeds).
///  2. Closed-form composition: the analytic fast path in
///     `mpisim/analytic.*` is bit-identical to event-by-event simulation
///     for the latency and inter-node kernels behind every Table 4/5/6
///     point-to-point cell, and falls back to full simulation whenever
///     faults, tracing, or a watchdog are in play.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "machines/registry.hpp"
#include "mpisim/analytic.hpp"
#include "mpisim/world.hpp"
#include "netsim/network.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "sim/vt_scheduler.hpp"
#include "trace/trace.hpp"

namespace nodebench {
namespace {

using namespace nodebench::literals;
using machines::byName;
using mpisim::BufferSpace;
using mpisim::InterNodeParams;
using mpisim::RankPlacement;
using sim::VirtualTimeScheduler;
using Mode = sim::VirtualTimeScheduler::Mode;

/// Pins the analytic fast path on/off for a scope and restores it after.
class FastPathGuard {
 public:
  explicit FastPathGuard(bool on) : prev_(mpisim::analytic::fastPathEnabled()) {
    mpisim::analytic::setFastPathEnabled(on);
  }
  ~FastPathGuard() { mpisim::analytic::setFastPathEnabled(prev_); }
  FastPathGuard(const FastPathGuard&) = delete;
  FastPathGuard& operator=(const FastPathGuard&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// 1a. Scheduler-mode cross-check: synthetic programs.
// ---------------------------------------------------------------------------

/// Everything observable about one scheduler run: per-rank clock
/// sequences (one sample after every virtual-time op), the switch count,
/// and the error text if the run threw.
struct RunRecord {
  std::vector<std::vector<double>> clocks;
  std::uint64_t switches = 0;
  std::string error;
  std::string errorType;
};

RunRecord runSynthetic(
    Mode mode, int ranks,
    const std::function<void(sim::VirtualProcess&, std::vector<double>&)>&
        body,
    Duration watchdog = Duration::infinity()) {
  RunRecord rec;
  rec.clocks.resize(static_cast<std::size_t>(ranks));
  VirtualTimeScheduler sched;
  sched.setMode(mode);
  if (watchdog < Duration::infinity()) {
    sched.setWatchdog(watchdog);
  }
  std::vector<VirtualTimeScheduler::ProcessFn> fns;
  for (int r = 0; r < ranks; ++r) {
    fns.push_back([&rec, &body, r](sim::VirtualProcess& p) {
      body(p, rec.clocks[static_cast<std::size_t>(r)]);
    });
  }
  try {
    sched.run(fns);
  } catch (const sim::TimeoutError& e) {
    rec.errorType = "timeout";
    rec.error = e.what();
  } catch (const sim::DeadlockError& e) {
    rec.errorType = "deadlock";
    rec.error = e.what();
  } catch (const Error& e) {
    rec.errorType = "error";
    rec.error = e.what();
  }
  rec.switches = sched.switchCount();
  return rec;
}

void expectSameRun(const RunRecord& threads, const RunRecord& coop) {
  EXPECT_EQ(threads.clocks, coop.clocks);
  EXPECT_EQ(threads.switches, coop.switches);
  EXPECT_EQ(threads.errorType, coop.errorType);
  EXPECT_EQ(threads.error, coop.error);
}

#define SKIP_WITHOUT_COOP()                                   \
  if (!VirtualTimeScheduler::cooperativeSupported()) {        \
    GTEST_SKIP() << "cooperative mode not supported here";    \
  }

TEST(SimcoreModes, InterleavedAdvanceLoopsMatch) {
  SKIP_WITHOUT_COOP();
  const auto body = [](sim::VirtualProcess& p, std::vector<double>& out) {
    for (int i = 0; i < 6; ++i) {
      p.advance(Duration::microseconds(1.0 + 0.3 * p.rank()));
      out.push_back(p.now().ns());
    }
  };
  expectSameRun(runSynthetic(Mode::Threads, 4, body),
                runSynthetic(Mode::Cooperative, 4, body));
}

TEST(SimcoreModes, BlockAndWakePipelineMatches) {
  SKIP_WITHOUT_COOP();
  // Rank r waits for rank r-1's token, then advances and passes it on —
  // a wake chain exercising blockUntil re-evaluation in both modes.
  constexpr int kRanks = 5;
  const auto makeRun = [&](Mode mode) {
    std::vector<int> token(1, 0);
    return runSynthetic(
        mode, kRanks,
        [&](sim::VirtualProcess& p, std::vector<double>& out) {
          const int r = p.rank();
          for (int round = 0; round < 3; ++round) {
            const int want = round * kRanks + r;
            p.blockUntil([&token, want] { return token[0] == want; });
            p.advance(Duration::nanoseconds(100.0 * (r + 1)));
            out.push_back(p.now().ns());
            token[0]++;
            for (int other = 0; other < kRanks; ++other) {
              if (other != r) {
                p.wake(other);
              }
            }
          }
        });
  };
  expectSameRun(makeRun(Mode::Threads), makeRun(Mode::Cooperative));
}

TEST(SimcoreModes, DeadlockDetectionMatches) {
  SKIP_WITHOUT_COOP();
  const auto body = [](sim::VirtualProcess& p, std::vector<double>& out) {
    if (p.rank() == 1) {
      p.advance(2_us);
      out.push_back(p.now().ns());
    }
    p.blockUntil([] { return false; });
  };
  const RunRecord threads = runSynthetic(Mode::Threads, 3, body);
  const RunRecord coop = runSynthetic(Mode::Cooperative, 3, body);
  EXPECT_EQ(threads.errorType, "deadlock");
  expectSameRun(threads, coop);
}

TEST(SimcoreModes, WatchdogTimeoutMatches) {
  SKIP_WITHOUT_COOP();
  const auto body = [](sim::VirtualProcess& p, std::vector<double>& out) {
    for (int i = 0; i < 100; ++i) {
      p.advance(1_us);
      out.push_back(p.now().ns());
    }
  };
  const RunRecord threads = runSynthetic(Mode::Threads, 2, body, 10_us);
  const RunRecord coop = runSynthetic(Mode::Cooperative, 2, body, 10_us);
  EXPECT_EQ(threads.errorType, "timeout");
  expectSameRun(threads, coop);
}

TEST(SimcoreModes, ProcessExceptionPropagationMatches) {
  SKIP_WITHOUT_COOP();
  const auto body = [](sim::VirtualProcess& p, std::vector<double>& out) {
    if (p.rank() == 1) {
      p.advance(1_us);
      throw Error("injected failure in rank 1");
    }
    out.push_back(p.now().ns());
    p.blockUntil([] { return false; });  // must be aborted, not hung
  };
  const RunRecord threads = runSynthetic(Mode::Threads, 2, body);
  const RunRecord coop = runSynthetic(Mode::Cooperative, 2, body);
  EXPECT_EQ(threads.errorType, "error");
  expectSameRun(threads, coop);
}

// ---------------------------------------------------------------------------
// 1b. Scheduler-mode cross-check: full MpiWorld programs across machines,
// fault parameters, and seeds.
// ---------------------------------------------------------------------------

/// Runs an intra-node ping-pong through the full event-by-event runtime
/// in the given scheduler mode, returning rank 0's per-iteration clocks
/// plus the switch count.
RunRecord runWorldPingPong(const machines::Machine& m, Mode mode,
                           ByteCount size, int iterations) {
  const auto [a, b] = osu::onSocketPair(m);
  mpisim::MpiWorld world(m, {a, b});
  world.setSchedulerMode(mode);
  RunRecord rec;
  rec.clocks.resize(2);
  world.runEach({[&](mpisim::Communicator& c) {
                   for (int i = 0; i < iterations; ++i) {
                     c.send(1, 7, size);
                     c.recv(1, 7, size);
                     rec.clocks[0].push_back(c.now().ns());
                   }
                 },
                 [&](mpisim::Communicator& c) {
                   for (int i = 0; i < iterations; ++i) {
                     c.recv(0, 7, size);
                     c.send(0, 7, size);
                     rec.clocks[1].push_back(c.now().ns());
                   }
                 }});
  rec.switches = world.schedulerSwitchCount();
  return rec;
}

TEST(SimcoreModes, MpiWorldPingPongMatchesAcrossMachines) {
  SKIP_WITHOUT_COOP();
  for (const char* name : {"Eagle", "Frontier", "Summit"}) {
    const machines::Machine& m = byName(name);
    for (const ByteCount size : {ByteCount::bytes(8), ByteCount::kib(64)}) {
      const RunRecord threads =
          runWorldPingPong(m, Mode::Threads, size, 20);
      const RunRecord coop =
          runWorldPingPong(m, Mode::Cooperative, size, 20);
      SCOPED_TRACE(std::string(name) + " @ " +
                   std::to_string(size.count()) + " B");
      expectSameRun(threads, coop);
    }
  }
}

/// Two-node ping-pong with Bernoulli packet loss: the retransmit draws are
/// seeded per message, so both modes must see identical delays and
/// retransmit counts for every fault seed.
TEST(SimcoreModes, FaultedInterNodeRunMatchesAcrossSeeds) {
  SKIP_WITHOUT_COOP();
  const machines::Machine& m = byName("Eagle");
  for (const std::uint64_t faultSeed : {1ull, 2ull, 99ull}) {
    InterNodeParams net = netsim::networkFor(m);
    net.packetLossRate = 0.05;
    net.faultSeed = faultSeed;
    const auto runMode = [&](Mode mode) {
      RankPlacement a;
      a.core = topo::CoreId{0};
      RankPlacement b;
      b.core = topo::CoreId{0};
      b.node = 1;
      mpisim::MpiWorld world(m, {a, b}, net);
      world.setSchedulerMode(mode);
      RunRecord rec;
      rec.clocks.resize(2);
      world.runEach(
          {[&](mpisim::Communicator& c) {
             for (int i = 0; i < 30; ++i) {
               c.send(1, 3, ByteCount::bytes(64));
               c.recv(1, 3, ByteCount::bytes(64));
               rec.clocks[0].push_back(c.now().ns());
             }
           },
           [&](mpisim::Communicator& c) {
             for (int i = 0; i < 30; ++i) {
               c.recv(0, 3, ByteCount::bytes(64));
               c.send(0, 3, ByteCount::bytes(64));
               rec.clocks[1].push_back(c.now().ns());
             }
           }});
      rec.switches = world.schedulerSwitchCount();
      rec.error = std::to_string(world.retransmitCount());
      return rec;
    };
    SCOPED_TRACE("faultSeed=" + std::to_string(faultSeed));
    expectSameRun(runMode(Mode::Threads), runMode(Mode::Cooperative));
  }
}

// ---------------------------------------------------------------------------
// 2. Closed-form composition vs event-by-event simulation (bit-identity).
// ---------------------------------------------------------------------------

TEST(SimcoreAnalytic, LatencyTruthBitIdenticalHostPairs) {
  const std::vector<ByteCount> sizes = {
      ByteCount::bytes(0),   ByteCount::bytes(1),  ByteCount::bytes(8),
      ByteCount::kib(4),     ByteCount::kib(8),    ByteCount::kib(64),
      ByteCount::mib(1)};
  for (const char* name : {"Eagle", "Frontier", "Summit", "Trinity"}) {
    const machines::Machine& m = byName(name);
    for (const bool onNode : {false, true}) {
      const auto [a, b] = onNode ? osu::onNodePair(m) : osu::onSocketPair(m);
      const osu::LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
      for (const ByteCount size : sizes) {
        Duration fast;
        Duration slow;
        {
          FastPathGuard guard(true);
          fast = bench.truthOneWay(size, 10);
        }
        {
          FastPathGuard guard(false);
          slow = bench.truthOneWay(size, 10);
        }
        EXPECT_EQ(fast.ns(), slow.ns())
            << name << (onNode ? " on-node" : " on-socket") << " @ "
            << size.count() << " B";
      }
    }
  }
}

TEST(SimcoreAnalytic, LatencyTruthBitIdenticalDevicePairs) {
  const std::vector<std::pair<const char*, topo::LinkClass>> cells = {
      {"Frontier", topo::LinkClass::A}, {"Summit", topo::LinkClass::B}};
  for (const auto& [name, linkClass] : cells) {
    const machines::Machine& m = byName(name);
    const auto [a, b] = osu::devicePair(m, linkClass);
    const osu::LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Device);
    for (const ByteCount size :
         {ByteCount::bytes(8), ByteCount::kib(8), ByteCount::mib(1)}) {
      Duration fast;
      Duration slow;
      {
        FastPathGuard guard(true);
        fast = bench.truthOneWay(size, 10);
      }
      {
        FastPathGuard guard(false);
        slow = bench.truthOneWay(size, 10);
      }
      EXPECT_EQ(fast.ns(), slow.ns())
          << name << " device @ " << size.count() << " B";
    }
  }
}

void expectSummaryEq(const Summary& x, const Summary& y,
                     const std::string& what) {
  EXPECT_EQ(x.mean, y.mean) << what;
  EXPECT_EQ(x.stddev, y.stddev) << what;
}

TEST(SimcoreAnalytic, InterNodeSinglePairBitIdentical) {
  for (const char* name : {"Eagle", "Frontier"}) {
    const machines::Machine& m = byName(name);
    for (const bool device : {false, true}) {
      if (device && !m.accelerated()) {
        continue;
      }
      netsim::InterNodeConfig cfg;
      cfg.messageSize = ByteCount::bytes(8);
      cfg.iterations = 50;
      cfg.binaryRuns = 10;
      cfg.deviceBuffers = device;
      netsim::InterNodeResult fast;
      netsim::InterNodeResult slow;
      {
        FastPathGuard guard(true);
        fast = netsim::measureInterNode(m, cfg);
      }
      {
        FastPathGuard guard(false);
        slow = netsim::measureInterNode(m, cfg);
      }
      const std::string what =
          std::string(name) + (device ? " device" : " host");
      expectSummaryEq(fast.latencyUs, slow.latencyUs, what + " latency");
      expectSummaryEq(fast.perPairBandwidthGBps, slow.perPairBandwidthGBps,
                      what + " bw");
      EXPECT_EQ(fast.retransmits, slow.retransmits) << what;
    }
  }
}

TEST(SimcoreAnalytic, PacketLossForcesEventPath) {
  // With a loss plan the fast path must decline; results are identical
  // whether the knob is on or off, and retransmits actually happen.
  const machines::Machine& m = byName("Eagle");
  InterNodeParams net = netsim::networkFor(m);
  net.packetLossRate = 0.05;
  net.faultSeed = 7;
  netsim::InterNodeConfig cfg;
  cfg.messageSize = ByteCount::bytes(8);
  cfg.iterations = 40;
  cfg.binaryRuns = 5;
  cfg.network = net;
  netsim::InterNodeResult on;
  netsim::InterNodeResult off;
  {
    FastPathGuard guard(true);
    on = netsim::measureInterNode(m, cfg);
  }
  {
    FastPathGuard guard(false);
    off = netsim::measureInterNode(m, cfg);
  }
  expectSummaryEq(on.latencyUs, off.latencyUs, "faulted latency");
  expectSummaryEq(on.perPairBandwidthGBps, off.perPairBandwidthGBps,
                  "faulted bw");
  EXPECT_EQ(on.retransmits, off.retransmits);
  EXPECT_GT(on.retransmits, 0u);
}

TEST(SimcoreAnalytic, WatchdogForcesEventPath) {
  // A watchdog needs the scheduler to raise TimeoutError; the fast path
  // must not swallow it.
  const machines::Machine& m = byName("Eagle");
  netsim::InterNodeConfig cfg;
  cfg.messageSize = ByteCount::bytes(8);
  cfg.iterations = 1000;
  cfg.binaryRuns = 1;
  cfg.watchdog = 1_us;  // far below the run's virtual duration
  FastPathGuard guard(true);
  EXPECT_THROW((void)netsim::measureInterNode(m, cfg), sim::TimeoutError);
}

TEST(SimcoreAnalytic, ActiveTraceSessionForcesEventPath) {
  const machines::Machine& m = byName("Eagle");
  const auto [a, b] = osu::onSocketPair(m);
  const osu::LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
  Duration untraced;
  {
    FastPathGuard guard(true);
    untraced = bench.truthOneWay(ByteCount::bytes(8), 10);
  }
  trace::Session session;
  Duration traced;
  std::size_t rankEvents = 0;
  {
    FastPathGuard guard(true);
    trace::Scope scope("simcore-test");
    traced = bench.truthOneWay(ByteCount::bytes(8), 10);
    rankEvents = scope.buffer()->events().size();
  }
  EXPECT_EQ(traced.ns(), untraced.ns());
  // The event path ran and recorded per-op events — proof of fallback.
  EXPECT_GT(rankEvents, 0u);
}

TEST(SimcoreAnalytic, ConcurrentTruthQueriesComputeOnce) {
  // Satellite regression: concurrent first queries of one (size,
  // iterations) key must agree (and not crash); the memo hands late
  // arrivals the owner's future instead of re-simulating.
  const machines::Machine& m = byName("Eagle");
  const auto [a, b] = osu::onSocketPair(m);
  const osu::LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
  std::vector<std::thread> workers;
  std::vector<double> results(8, 0.0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    workers.emplace_back([&bench, &results, i] {
      osu::LatencyConfig cfg;
      cfg.messageSize = ByteCount::bytes(8);
      cfg.binaryRuns = 3;
      results[i] = bench.measure(cfg).latencyUs.mean;
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
}

}  // namespace
}  // namespace nodebench
