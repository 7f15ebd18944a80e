/// \file bench_simcore_gbench.cpp
/// \brief google-benchmark microbenchmarks of the simulation substrate
/// itself: how fast the event queue, virtual-time scheduler, simulated
/// MPI ping-pong and GPU runtime execute on the build host. These guard
/// the harness's own performance (the table benches run hundreds of
/// simulated benchmarks).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "gpusim/gpu_runtime.hpp"
#include "machines/registry.hpp"
#include "mpisim/analytic.hpp"
#include "mpisim/world.hpp"
#include "netsim/network.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/tables.hpp"
#include "sim/event_queue.hpp"
#include "sim/vt_scheduler.hpp"
#include "trace/trace.hpp"

/// Process-wide allocation counter (one relaxed increment per operator
/// new) so BM_EventQueueSteadyState can *prove* the hot loop is
/// allocation-free instead of asserting it in a comment.
std::atomic<std::uint64_t> g_allocCount{0};

void* countedAlloc(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace nodebench;

/// Pins the analytic fast path for one benchmark body and restores it.
class FastPathGuard {
 public:
  explicit FastPathGuard(bool on)
      : prev_(mpisim::analytic::fastPathEnabled()) {
    mpisim::analytic::setFastPathEnabled(on);
  }
  ~FastPathGuard() { mpisim::analytic::setFastPathEnabled(prev_); }
  FastPathGuard(const FastPathGuard&) = delete;
  FastPathGuard& operator=(const FastPathGuard&) = delete;

 private:
  bool prev_;
};

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    int sink = 0;
    for (int i = 0; i < events; ++i) {
      q.scheduleAt(Duration::nanoseconds(static_cast<double>(i % 97)),
                   [&sink] { ++sink; });
    }
    q.runAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // A self-rescheduling event chain: after the pool warms up, every
  // schedule reuses the slot the running event just vacated (DESIGN.md
  // §12 owned-slot pop). The allocs_per_event counter — measured with
  // the binary's counting operator new — must stay at 0.
  // The chain closure captures a single pointer so the std::function fits
  // its small-object buffer — any allocation counted below is the
  // queue's own.
  struct Chain {
    sim::EventQueue q;
    int remaining = 0;
    void schedule() {
      Chain* self = this;
      q.scheduleAfter(Duration::nanoseconds(10.0), [self] {
        if (--self->remaining > 0) {
          self->schedule();
        }
      });
    }
  };
  constexpr int kEvents = 4096;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Chain chain;
    chain.remaining = kEvents;
    chain.schedule();
    chain.q.step();  // warm the pool: the first schedule grew the slot vector
    const std::uint64_t before =
        g_allocCount.load(std::memory_order_relaxed);
    state.ResumeTiming();
    chain.q.runAll();
    state.PauseTiming();
    allocs += g_allocCount.load(std::memory_order_relaxed) - before;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * kEvents));
}
BENCHMARK(BM_EventQueueSteadyState);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_XoshiroNormal(benchmark::State& state) {
  Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_XoshiroNormal);

void BM_WelfordAdd(benchmark::State& state) {
  Welford w;
  double x = 0.0;
  for (auto _ : state) {
    w.add(x);
    x += 0.5;
  }
  benchmark::DoNotOptimize(w.count());
}
BENCHMARK(BM_WelfordAdd);

void BM_VtSchedulerSwitch(benchmark::State& state) {
  // Two processes leapfrogging: measures the handoff cost that bounds
  // simulated ping-pong throughput.
  const int steps = 256;
  for (auto _ : state) {
    sim::VirtualTimeScheduler sched;
    const auto proc = [](sim::VirtualProcess& p) {
      for (int i = 0; i < steps; ++i) {
        p.advance(Duration::nanoseconds(10.0));
      }
    };
    sched.run({proc, proc});
    benchmark::DoNotOptimize(sched.switchCount());
  }
  state.SetItemsProcessed(state.iterations() * 2 * steps);
}
BENCHMARK(BM_VtSchedulerSwitch);

void BM_VtSchedulerSwitchMode(benchmark::State& state) {
  // The same leapfrog pinned to one execution mode (0 = Threads,
  // 1 = Cooperative): the ratio is the kernel-handoff cost the fiber
  // mode removes (DESIGN.md §12).
  using Mode = sim::VirtualTimeScheduler::Mode;
  const Mode mode = state.range(0) == 0 ? Mode::Threads : Mode::Cooperative;
  if (mode == Mode::Cooperative &&
      !sim::VirtualTimeScheduler::cooperativeSupported()) {
    state.SkipWithError("cooperative mode not supported in this build");
    return;
  }
  const int steps = 256;
  for (auto _ : state) {
    sim::VirtualTimeScheduler sched;
    sched.setMode(mode);
    const auto proc = [](sim::VirtualProcess& p) {
      for (int i = 0; i < steps; ++i) {
        p.advance(Duration::nanoseconds(10.0));
      }
    };
    sched.run({proc, proc});
    benchmark::DoNotOptimize(sched.switchCount());
  }
  state.SetItemsProcessed(state.iterations() * 2 * steps);
  state.SetLabel(mode == Mode::Threads ? "threads" : "cooperative");
}
BENCHMARK(BM_VtSchedulerSwitchMode)->Arg(0)->Arg(1);

void BM_SimulatedPingPong(benchmark::State& state) {
  const auto& m = machines::byName("Eagle");
  const int iters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpisim::MpiWorld world(
        m, {mpisim::RankPlacement{topo::CoreId{0}, std::nullopt},
            mpisim::RankPlacement{topo::CoreId{1}, std::nullopt}});
    world.runEach({
        [&](mpisim::Communicator& c) {
          for (int i = 0; i < iters; ++i) {
            c.send(1, 0, ByteCount::bytes(8));
            c.recv(1, 0, ByteCount::bytes(8));
          }
        },
        [&](mpisim::Communicator& c) {
          for (int i = 0; i < iters; ++i) {
            c.recv(0, 0, ByteCount::bytes(8));
            c.send(0, 0, ByteCount::bytes(8));
          }
        },
    });
  }
  state.SetItemsProcessed(state.iterations() * iters);
}
BENCHMARK(BM_SimulatedPingPong)->Arg(100)->Arg(1000);

void BM_GpuRuntimeLaunchSync(benchmark::State& state) {
  const auto& m = machines::byName("Frontier");
  gpusim::GpuRuntime rt(m);
  const auto stream = rt.defaultStream(0);
  for (auto _ : state) {
    rt.reset();
    rt.launchKernel(stream, Duration::microseconds(1.0));
    rt.streamSynchronize(stream);
    benchmark::DoNotOptimize(rt.hostNow());
  }
}
BENCHMARK(BM_GpuRuntimeLaunchSync);

void BM_MachineRegistryLookup(benchmark::State& state) {
  (void)machines::allMachines();  // build outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(&machines::byName("Perlmutter"));
  }
}
BENCHMARK(BM_MachineRegistryLookup);

// --- hot-path caching: route resolution ------------------------------------

void BM_RouteGpuToGpuUncached(benchmark::State& state) {
  // The per-message cost the transports paid before memoization: a full
  // link-list walk plus a fresh hop vector.
  const auto& topo = machines::byName("Summit").topology;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topo.routeGpuToGpuUncached(topo::GpuId{0}, topo::GpuId{1}));
  }
}
BENCHMARK(BM_RouteGpuToGpuUncached);

void BM_RouteGpuToGpuCached(benchmark::State& state) {
  const auto& topo = machines::byName("Summit").topology;
  (void)topo.routeGpuToGpu(topo::GpuId{0}, topo::GpuId{1});  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(&topo.routeGpuToGpu(topo::GpuId{0},
                                                 topo::GpuId{1}));
  }
}
BENCHMARK(BM_RouteGpuToGpuCached);

// --- hot-path caching: OSU truth reuse --------------------------------------

void BM_OsuMeasureTruthPerCall(benchmark::State& state) {
  // A fresh benchmark instance per measure: every call pays the
  // thread-spawning virtual-time ping-pong.
  const auto& m = machines::byName("Eagle");
  const auto [a, b] = osu::onSocketPair(m);
  osu::LatencyConfig cfg;
  cfg.binaryRuns = 100;
  for (auto _ : state) {
    const osu::LatencyBenchmark bench(m, a, b,
                                      mpisim::BufferSpace::Kind::Host);
    benchmark::DoNotOptimize(bench.measure(cfg).latencyUs.mean);
  }
}
BENCHMARK(BM_OsuMeasureTruthPerCall);

void BM_OsuMeasureTruthReused(benchmark::State& state) {
  // A shared instance: after the first call the memoized truth turns
  // measure() into 100 noise draws.
  const auto& m = machines::byName("Eagle");
  const auto [a, b] = osu::onSocketPair(m);
  const osu::LatencyBenchmark bench(m, a, b,
                                    mpisim::BufferSpace::Kind::Host);
  osu::LatencyConfig cfg;
  cfg.binaryRuns = 100;
  benchmark::DoNotOptimize(bench.measure(cfg).latencyUs.mean);  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.measure(cfg).latencyUs.mean);
  }
}
BENCHMARK(BM_OsuMeasureTruthReused);

// --- noise draws: the Table 1 sweep ----------------------------------------

void BM_OmpSweep(benchmark::State& state) {
  // Table 4's host bandwidth cell on one card: eight OpenMP combinations
  // x five ops x Arg binary runs, with no trace session and no capture
  // (model truths evaluated once per combination and op).
  const auto& m = machines::byName("Eagle");
  report::TableOptions opt;
  opt.binaryRuns = static_cast<int>(state.range(0));
  opt.jobs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(report::ompSweep(m, opt).bestAll.mean);
  }
}
BENCHMARK(BM_OmpSweep)->Arg(100)->Arg(8000)->Unit(benchmark::kMicrosecond);

// --- tracing overhead --------------------------------------------------------

void BM_TraceScopeDisabled(benchmark::State& state) {
  // No session active: Scope construction is one relaxed atomic load and
  // every instrumented call site is a null-pointer check. This pins the
  // "zero overhead when disabled" contract of DESIGN.md §9.
  for (auto _ : state) {
    trace::Scope scope("bench/disabled");
    benchmark::DoNotOptimize(scope.buffer());
  }
}
BENCHMARK(BM_TraceScopeDisabled);

void BM_SimulatedPingPongTraced(benchmark::State& state) {
  // The workload of BM_SimulatedPingPong/100 with recording enabled;
  // the delta over the untraced run (which carries the compiled-in
  // instrumentation on its disabled path) is the full cost of tracing.
  const auto& m = machines::byName("Eagle");
  const int iters = 100;
  for (auto _ : state) {
    trace::Session session;
    trace::Scope scope("bench/pingpong");
    mpisim::MpiWorld world(
        m, {mpisim::RankPlacement{topo::CoreId{0}, std::nullopt},
            mpisim::RankPlacement{topo::CoreId{1}, std::nullopt}});
    world.runEach({
        [&](mpisim::Communicator& c) {
          for (int i = 0; i < iters; ++i) {
            c.send(1, 0, ByteCount::bytes(8));
            c.recv(1, 0, ByteCount::bytes(8));
          }
        },
        [&](mpisim::Communicator& c) {
          for (int i = 0; i < iters; ++i) {
            c.recv(0, 0, ByteCount::bytes(8));
            c.send(0, 0, ByteCount::bytes(8));
          }
        },
    });
  }
  state.SetItemsProcessed(state.iterations() * iters);
}
BENCHMARK(BM_SimulatedPingPongTraced);

// --- parallel harness scaling ----------------------------------------------

void BM_ParallelMapPingPong(benchmark::State& state) {
  // 16 simulated ping-pong cells fanned out over N workers — the shape of
  // the table harness fan-out. On a 1-core host all worker counts should
  // be within noise of each other; on multi-core hosts this shows the
  // scaling the --jobs flag buys.
  const int jobs = static_cast<int>(state.range(0));
  const auto& m = machines::byName("Eagle");
  std::vector<int> cells(16);
  for (auto _ : state) {
    const auto out = par::parallelMap(
        cells,
        [&](const int&) {
          mpisim::MpiWorld world(
              m, {mpisim::RankPlacement{topo::CoreId{0}, std::nullopt},
                  mpisim::RankPlacement{topo::CoreId{1}, std::nullopt}});
          double sink = 0.0;
          world.runEach({
              [&](mpisim::Communicator& c) {
                for (int i = 0; i < 100; ++i) {
                  c.send(1, 0, ByteCount::bytes(8));
                  c.recv(1, 0, ByteCount::bytes(8));
                }
                sink = c.now().us();
              },
              [&](mpisim::Communicator& c) {
                for (int i = 0; i < 100; ++i) {
                  c.recv(0, 0, ByteCount::bytes(8));
                  c.send(0, 0, ByteCount::bytes(8));
                }
              },
          });
          return sink;
        },
        jobs);
    benchmark::DoNotOptimize(out.front());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_ParallelMapPingPong)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- closed-form fast path vs event-by-event simulation ---------------------
// The same truth computations with the analytic composer pinned on (1) or
// off (0); the simcore test suite proves the results are bit-identical, so
// the ratio here is pure overhead removed.

void BM_LatencyTruth(benchmark::State& state) {
  const auto& m = machines::byName("Eagle");
  const auto [a, b] = osu::onSocketPair(m);
  const osu::LatencyBenchmark bench(m, a, b, mpisim::BufferSpace::Kind::Host);
  const FastPathGuard guard(state.range(0) == 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench.truthOneWay(ByteCount::bytes(8), 1000).ns());
  }
  state.SetLabel(state.range(0) == 1 ? "analytic" : "event");
}
BENCHMARK(BM_LatencyTruth)->Arg(0)->Arg(1);

void BM_LatencyTruthDevice(benchmark::State& state) {
  // GPU-machine variant: Frontier MI250X device buffers (Table 5's
  // fastest cell class). Device paths resolve through the GPU route but
  // compose identically.
  const auto& m = machines::byName("Frontier");
  const auto [a, b] = osu::devicePair(m, topo::LinkClass::A);
  const osu::LatencyBenchmark bench(m, a, b,
                                    mpisim::BufferSpace::Kind::Device);
  const FastPathGuard guard(state.range(0) == 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench.truthOneWay(ByteCount::bytes(8), 1000).ns());
  }
  state.SetLabel(state.range(0) == 1 ? "analytic" : "event");
}
BENCHMARK(BM_LatencyTruthDevice)->Arg(0)->Arg(1);

void BM_InterNodeMeasure(benchmark::State& state) {
  // Summit device-buffer inter-node pair through netsim. Arg: 0 = event
  // path pinned, 1 = fast path, 2 = a 5% packet-loss plan (the fast path
  // must decline, so this benchmarks the fallback boundary itself).
  const auto& m = machines::byName("Summit");
  netsim::InterNodeConfig cfg;
  cfg.messageSize = ByteCount::bytes(8);
  cfg.iterations = 100;
  cfg.binaryRuns = 10;
  cfg.deviceBuffers = true;
  if (state.range(0) == 2) {
    mpisim::InterNodeParams net = netsim::networkFor(m);
    net.packetLossRate = 0.05;
    net.faultSeed = 7;
    cfg.network = net;
  }
  const FastPathGuard guard(state.range(0) >= 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::measureInterNode(m, cfg).latencyUs.mean);
  }
  state.SetLabel(state.range(0) == 0   ? "event"
                 : state.range(0) == 1 ? "analytic"
                                       : "faulted-fallback");
}
BENCHMARK(BM_InterNodeMeasure)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
