#include "osu/latency.hpp"

#include <gtest/gtest.h>

#include "machines/registry.hpp"
#include "osu/pairs.hpp"

namespace nodebench::osu {
namespace {

using machines::byName;
using mpisim::BufferSpace;

TEST(Pairs, OnSocketUsesCoresZeroAndOne) {
  const auto& m = byName("Sawtooth");
  const auto [a, b] = onSocketPair(m);
  EXPECT_EQ(a.core.value, 0);
  EXPECT_EQ(b.core.value, 1);
  EXPECT_FALSE(a.gpu.has_value());
}

TEST(Pairs, OnNodeCrossesSocketsOnXeon) {
  const auto& m = byName("Eagle");
  const auto [a, b] = onNodePair(m);
  EXPECT_EQ(m.topology.core(a.core).socket.value, 0);
  EXPECT_EQ(m.topology.core(b.core).socket.value, 1);
}

TEST(Pairs, OnNodeUsesFirstAndLastCoreOnKnl) {
  const auto& m = byName("Theta");
  const auto [a, b] = onNodePair(m);
  EXPECT_EQ(a.core.value, 0);
  EXPECT_EQ(b.core.value, 63);
}

TEST(Pairs, DevicePairBindsGpusAndDistinctCores) {
  const auto& m = byName("Summit");
  const auto [a, b] = devicePair(m, topo::LinkClass::B);
  ASSERT_TRUE(a.gpu.has_value() && b.gpu.has_value());
  EXPECT_NE(*a.gpu, *b.gpu);
  EXPECT_NE(a.core.value, b.core.value);
  // Class B on Summit crosses sockets.
  EXPECT_NE(m.topology.gpu(topo::GpuId{*a.gpu}).socket,
            m.topology.gpu(topo::GpuId{*b.gpu}).socket);
}

TEST(Pairs, MissingClassThrows) {
  EXPECT_THROW((void)devicePair(byName("Polaris"), topo::LinkClass::C),
               PreconditionError);
}

TEST(Latency, TruthMatchesTransportModel) {
  const auto& m = byName("Manzano");
  const auto [a, b] = onSocketPair(m);
  const LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
  // 8 B eager one-way: 0.32 us + 8 B / 8 GB/s = 0.321 us.
  EXPECT_NEAR(bench.truthOneWay(ByteCount::bytes(8), 100).us(),
              0.32 + 8.0 / 8000.0, 1e-9);
}

TEST(Latency, MeasureAggregatesBinaryRuns) {
  const auto& m = byName("Eagle");
  const auto [a, b] = onSocketPair(m);
  const LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
  LatencyConfig cfg;
  cfg.binaryRuns = 100;
  const LatencyResult result = bench.measure(cfg);
  EXPECT_EQ(result.latencyUs.count, 100u);
  EXPECT_NEAR(result.latencyUs.mean, 0.17, 0.01);
  EXPECT_GT(result.latencyUs.stddev, 0.0);
}

TEST(Latency, DeviceBuffersNeedGpus) {
  const auto& m = byName("Summit");
  const auto [a, b] = onSocketPair(m);
  EXPECT_THROW(LatencyBenchmark(m, a, b, BufferSpace::Kind::Device),
               PreconditionError);
}

TEST(Latency, DeviceLatencyMatchesPaperScale) {
  const auto& m = byName("Frontier");
  const auto [a, b] = devicePair(m, topo::LinkClass::A);
  const LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Device);
  LatencyConfig cfg;
  cfg.binaryRuns = 50;
  EXPECT_NEAR(bench.measure(cfg).latencyUs.mean, 0.44, 0.02);
}

TEST(Latency, SweepIsMonotoneInSize) {
  const auto& m = byName("Sawtooth");
  const auto [a, b] = onSocketPair(m);
  const LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
  LatencyConfig cfg;
  cfg.binaryRuns = 3;
  cfg.iterations = 20;  // keep the test fast
  const auto sweep = bench.sweep(ByteCount::kib(64), cfg);
  ASSERT_GE(sweep.size(), 16u);
  EXPECT_EQ(sweep.front().messageSize.count(), 0u);
  for (std::size_t i = 2; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].latencyUs.mean, sweep[i - 1].latencyUs.mean * 0.95)
        << "size " << sweep[i].messageSize.count();
  }
  // Large messages are clearly slower than small ones.
  EXPECT_GT(sweep.back().latencyUs.mean, 2.0 * sweep[1].latencyUs.mean);
}

TEST(Latency, EagerRendezvousStepAtThreshold) {
  // Crossing the 8 KiB eager threshold adds the rendezvous handshake but
  // switches to the single-copy path. On a machine with expensive
  // software overheads (Theta's old cray-mpich) the handshake dominates:
  // a clear step up. On Eagle the faster copy wins: latency drops.
  struct Step {
    const char* machine;
    double at8192Us;
    double at8193Us;
  };
  for (const Step& s : {Step{"Eagle", 1.194, 1.020},
                        Step{"Manzano", 1.344, 1.400},
                        Step{"Theta", 6.974, 15.485},
                        Step{"Frontier", 1.474, 1.750}}) {
    const auto& m = byName(s.machine);
    const auto [a, b] = onSocketPair(m);
    const LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
    const ByteCount thr = m.hostMpi.eagerThreshold;
    ASSERT_EQ(thr.count(), 8192u) << s.machine;
    EXPECT_NEAR(bench.truthOneWay(thr, 10).us(), s.at8192Us, 1e-3)
        << s.machine;
    EXPECT_NEAR(
        bench.truthOneWay(ByteCount::bytes(thr.count() + 1), 10).us(),
        s.at8193Us, 1e-3)
        << s.machine;
  }
}

TEST(Latency, OnNodeAtLeastOnSocket) {
  for (const char* name : {"Trinity", "Theta", "Sawtooth", "Eagle",
                           "Manzano"}) {
    const auto& m = byName(name);
    const auto [sa, sb] = onSocketPair(m);
    const auto [na, nb] = onNodePair(m);
    const LatencyBenchmark sock(m, sa, sb, BufferSpace::Kind::Host);
    const LatencyBenchmark node(m, na, nb, BufferSpace::Kind::Host);
    const ByteCount size = ByteCount::bytes(8);
    EXPECT_GE(node.truthOneWay(size, 10).ns() + 1e-6,
              sock.truthOneWay(size, 10).ns())
        << name;
  }
}

TEST(Latency, InvalidIterationCountRejected) {
  const auto& m = byName("Eagle");
  const auto [a, b] = onSocketPair(m);
  const LatencyBenchmark bench(m, a, b, BufferSpace::Kind::Host);
  EXPECT_THROW((void)bench.truthOneWay(ByteCount::bytes(8), 0),
               PreconditionError);
}

}  // namespace
}  // namespace nodebench::osu
