/// Property tests of the transport model across every machine: symmetry,
/// positivity, monotonicity and route-consistency invariants that the
/// individual calibration tests don't cover.

#include <gtest/gtest.h>

#include "machines/registry.hpp"
#include "mpisim/transport.hpp"
#include "mpisim/world.hpp"

namespace nodebench::mpisim {
namespace {

using machines::Machine;
using topo::CoreId;
using topo::GpuId;

class TransportPropertyTest : public ::testing::TestWithParam<const char*> {
 protected:
  const Machine& machine() const { return machines::byName(GetParam()); }
};

TEST_P(TransportPropertyTest, HostPathIsSymmetric) {
  const Machine& m = machine();
  const int last = m.topology.coreCount() - 1;
  for (const auto& [a, b] : {std::pair{0, 1}, std::pair{0, last},
                             std::pair{1, last}}) {
    const RankPlacement pa{CoreId{a}, std::nullopt};
    const RankPlacement pb{CoreId{b}, std::nullopt};
    const PathTiming fwd = resolvePath(m, pa, pb, BufferSpace::host(),
                                       BufferSpace::host());
    const PathTiming rev = resolvePath(m, pb, pa, BufferSpace::host(),
                                       BufferSpace::host());
    EXPECT_DOUBLE_EQ(fwd.eagerOneWay(ByteCount::bytes(8)).ns(),
                     rev.eagerOneWay(ByteCount::bytes(8)).ns())
        << a << "<->" << b;
  }
}

TEST_P(TransportPropertyTest, EagerOneWayMonotoneInSize) {
  const Machine& m = machine();
  const RankPlacement a{CoreId{0}, std::nullopt};
  const RankPlacement b{CoreId{1}, std::nullopt};
  const PathTiming t =
      resolvePath(m, a, b, BufferSpace::host(), BufferSpace::host());
  Duration prev = Duration::zero();
  for (std::uint64_t size : {0ull, 1ull, 64ull, 1024ull, 8192ull}) {
    const Duration oneWay = t.eagerOneWay(ByteCount::bytes(size));
    EXPECT_GE(oneWay, prev) << size;
    prev = oneWay;
  }
}

TEST_P(TransportPropertyTest, RendezvousStepIsHandshakePlusCopyChange) {
  // One byte past the eager threshold pays the RTS/CTS handshake (one more
  // send overhead, two more receive overheads, two more path latencies)
  // and moves at the single-copy rendezvous bandwidth instead of the
  // eager one. The step is negative where the faster copy saves more than
  // the handshake costs (Eagle).
  const Machine& m = machine();
  const RankPlacement a{CoreId{0}, std::nullopt};
  const RankPlacement b{CoreId{1}, std::nullopt};
  const PathTiming p =
      resolvePath(m, a, b, BufferSpace::host(), BufferSpace::host());
  const ByteCount eager = p.eagerThreshold;
  const ByteCount rendezvous = ByteCount::bytes(eager.count() + 1);
  const auto oneWayNs = [&](ByteCount size) {
    constexpr int kRoundTrips = 10;
    MpiWorld world(m, {a, b});
    Duration elapsed = Duration::zero();
    world.run([&](Communicator& c) {
      for (int i = 0; i < kRoundTrips; ++i) {
        if (c.rank() == 0) {
          c.send(1, 0, size);
          c.recv(1, 0, size);
        } else {
          c.recv(0, 0, size);
          c.send(0, 0, size);
        }
      }
      if (c.rank() == 0) {
        elapsed = c.now();
      }
    });
    return elapsed.ns() / (2.0 * kRoundTrips);
  };
  const double handshake = p.sendOverhead.ns() + 2.0 * p.recvOverhead.ns() +
                           2.0 * p.latency.ns();
  const double copyChange =
      p.rendezvousBandwidth.transferTime(rendezvous).ns() -
      p.eagerBandwidth.transferTime(eager).ns();
  EXPECT_NEAR(oneWayNs(rendezvous) - oneWayNs(eager), handshake + copyChange,
              1e-6);
}

TEST_P(TransportPropertyTest, AllTimingConstantsPositive) {
  const Machine& m = machine();
  const RankPlacement a{CoreId{0}, std::nullopt};
  const RankPlacement b{CoreId{1}, std::nullopt};
  const PathTiming t =
      resolvePath(m, a, b, BufferSpace::host(), BufferSpace::host());
  EXPECT_GT(t.sendOverhead, Duration::zero());
  EXPECT_GT(t.recvOverhead, Duration::zero());
  EXPECT_GE(t.latency, Duration::zero());
  EXPECT_GT(t.eagerBandwidth.inGBps(), 0.0);
  EXPECT_GT(t.rendezvousBandwidth.inGBps(), 0.0);
}

TEST_P(TransportPropertyTest, DevicePathSymmetricPerClass) {
  const Machine& m = machine();
  if (!m.accelerated()) {
    GTEST_SKIP() << "CPU-only system";
  }
  for (const topo::LinkClass c : m.topology.presentGpuLinkClasses()) {
    const auto pair = m.topology.representativePair(c);
    ASSERT_TRUE(pair.has_value());
    const RankPlacement a{CoreId{0}, pair->first.value};
    const RankPlacement b{CoreId{1}, pair->second.value};
    const PathTiming fwd =
        resolvePath(m, a, b, BufferSpace::onDevice(pair->first.value),
                    BufferSpace::onDevice(pair->second.value));
    const PathTiming rev =
        resolvePath(m, b, a, BufferSpace::onDevice(pair->second.value),
                    BufferSpace::onDevice(pair->first.value));
    EXPECT_DOUBLE_EQ(fwd.eagerOneWay(ByteCount::bytes(8)).ns(),
                     rev.eagerOneWay(ByteCount::bytes(8)).ns())
        << "class " << topo::linkClassName(c);
  }
}

TEST_P(TransportPropertyTest, GpuRoutesAreConsistent) {
  const Machine& m = machine();
  if (!m.accelerated()) {
    GTEST_SKIP();
  }
  const int n = m.topology.gpuCount();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto fwd = m.topology.routeGpuToGpu(GpuId{i}, GpuId{j});
      const auto rev = m.topology.routeGpuToGpu(GpuId{j}, GpuId{i});
      EXPECT_DOUBLE_EQ(fwd.latency.ns(), rev.latency.ns());
      EXPECT_DOUBLE_EQ(fwd.bottleneck.inGBps(), rev.bottleneck.inGBps());
      // Bottleneck really is the minimum over hops.
      for (const auto* hop : fwd.hops) {
        EXPECT_LE(fwd.bottleneck.inGBps(), hop->bandwidth.inGBps() + 1e-12);
      }
      // Routed (multi-hop) paths are never faster than any direct link.
      if (!fwd.direct()) {
        EXPECT_GE(fwd.hops.size(), 2u);
      }
    }
  }
}

TEST_P(TransportPropertyTest, MixedHostDevicePathResolves) {
  const Machine& m = machine();
  if (!m.accelerated()) {
    GTEST_SKIP();
  }
  const RankPlacement host{CoreId{0}, std::nullopt};
  const RankPlacement dev{CoreId{1}, 0};
  const PathTiming t = resolvePath(m, host, dev, BufferSpace::host(),
                                   BufferSpace::onDevice(0));
  EXPECT_GT(t.eagerOneWay(ByteCount::bytes(8)), Duration::zero());
}

INSTANTIATE_TEST_SUITE_P(AllMachines, TransportPropertyTest,
                         ::testing::Values("Frontier", "Summit", "Sierra",
                                           "Perlmutter", "Polaris",
                                           "Trinity", "Lassen", "Theta",
                                           "Sawtooth", "RZVernal", "Eagle",
                                           "Tioga", "Manzano"));

}  // namespace
}  // namespace nodebench::mpisim
