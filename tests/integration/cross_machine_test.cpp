/// Cross-machine integration tests: run the full benchmark pipeline on
/// every system and check the *relationships* the paper's narrative calls
/// out (who wins, by roughly what factor) rather than individual cells.

#include <gtest/gtest.h>

#include <ostream>

#include "babelstream/driver.hpp"
#include "babelstream/sim_device_backend.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "commscope/commscope.hpp"
#include "machines/registry.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"

namespace nodebench {
namespace {

using machines::byName;
using machines::Machine;

double deviceStreamGBps(const Machine& m) {
  babelstream::SimDeviceBackend backend(m, 0);
  babelstream::DriverConfig cfg;
  cfg.arrayBytes = ByteCount::gib(1);
  cfg.binaryRuns = 10;
  return babelstream::run(backend, cfg).best().bandwidthGBps.mean;
}

double deviceMpiUs(const Machine& m) {
  const auto [a, b] = osu::devicePair(m, topo::LinkClass::A);
  osu::LatencyConfig cfg;
  cfg.binaryRuns = 10;
  return osu::LatencyBenchmark(m, a, b, mpisim::BufferSpace::Kind::Device)
      .measure(cfg)
      .latencyUs.mean;
}

double hostMpiUs(const Machine& m) {
  const auto [a, b] = osu::onSocketPair(m);
  osu::LatencyConfig cfg;
  cfg.binaryRuns = 10;
  return osu::LatencyBenchmark(m, a, b, mpisim::BufferSpace::Kind::Host)
      .measure(cfg)
      .latencyUs.mean;
}

TEST(CrossMachine, V100GenerationHasLowestDeviceBandwidth) {
  // Paper §4: "the three NVIDIA V100 machines have a substantially lower
  // device memory bandwidth than the A100 and MI250X machines."
  for (const char* v100 : {"Summit", "Sierra", "Lassen"}) {
    for (const char* newer :
         {"Perlmutter", "Polaris", "Frontier", "RZVernal", "Tioga"}) {
      EXPECT_LT(deviceStreamGBps(byName(v100)),
                0.7 * deviceStreamGBps(byName(newer)))
          << v100 << " vs " << newer;
    }
  }
}

TEST(CrossMachine, A100AndMi250xReachSimilarBandwidth) {
  // Paper §4: "the latter two categories report fairly similar achieved
  // memory bandwidth (about 1.3 TB/s)."
  const double a100 = deviceStreamGBps(byName("Perlmutter"));
  const double mi = deviceStreamGBps(byName("Tioga"));
  EXPECT_NEAR(a100 / mi, 1.0, 0.1);
  EXPECT_GT(a100, 1250.0);
  EXPECT_LT(a100, 1450.0);
}

TEST(CrossMachine, HostMpiLatencySubMicrosecondEverywhereButTheta) {
  for (const Machine& m : machines::allMachines()) {
    const double us = hostMpiUs(m);
    if (m.info.name == "Theta") {
      EXPECT_GT(us, 5.0);
    } else {
      EXPECT_LT(us, 1.0) << m.info.name;
    }
  }
}

TEST(CrossMachine, DeviceMpiHierarchyMatchesPaper) {
  // V100 ~18-19 us, A100 10-14 us, MI250X sub-microsecond.
  for (const char* name : {"Summit", "Sierra", "Lassen"}) {
    const double us = deviceMpiUs(byName(name));
    EXPECT_GT(us, 17.0) << name;
    EXPECT_LT(us, 20.0) << name;
  }
  for (const char* name : {"Perlmutter", "Polaris"}) {
    const double us = deviceMpiUs(byName(name));
    EXPECT_GT(us, 9.0) << name;
    EXPECT_LT(us, 15.0) << name;
  }
  for (const char* name : {"Frontier", "RZVernal", "Tioga"}) {
    EXPECT_LT(deviceMpiUs(byName(name)), 1.0) << name;
  }
}

TEST(CrossMachine, DeviceMpiBeatsCommScopeD2dOnEveryGpuMachine) {
  // Paper §4: "Inter-device latency in Comm|Scope is substantially slower
  // than the inter-device latency shown by the OSU microbenchmarks"
  // (memcpyAsync vs MPI RMA) — on the MI250X machines by 20-27x.
  for (const Machine* m : machines::gpuMachines()) {
    commscope::CommScope scope(*m);
    commscope::Config cfg;
    cfg.binaryRuns = 5;
    const double commscopeUs =
        scope.d2dLatencyUs(topo::LinkClass::A, cfg).mean;
    EXPECT_GT(commscopeUs, deviceMpiUs(*m)) << m->info.name;
  }
}

/// A GPU machine and its noise-free ratio of class-A device-to-device
/// latency through Comm|Scope's memcpyAsync (128 B) to that through OSU's
/// MPI RMA (8 B).
struct D2dGap {
  const char* machine;
  double commScopeOverOsu;
};

void PrintTo(const D2dGap& gap, std::ostream* os) {
  *os << ::testing::PrintToString(gap.machine);
}

class D2dMechanismTest : public ::testing::TestWithParam<D2dGap> {
 protected:
  const Machine& machine() const { return byName(GetParam().machine); }

  /// Noise-free Comm|Scope class-A latency of a 128 B copy.
  double commScopeUs() const {
    return commscope::CommScope(machine())
        .truthD2dTime(topo::LinkClass::A, kProbe)
        .us();
  }

  static constexpr ByteCount kProbe = ByteCount::bytes(128);
};

TEST_P(D2dMechanismTest, ClassALatencyIsCallDmaRouteAndSync) {
  // The memcpyAsync path pays the driver call, the DMA-engine setup, the
  // route and a synchronize per copy: the noise-free class-A latency is
  // exactly those terms plus the 128 B transfer.
  const Machine& m = machine();
  const auto pair = m.topology.representativePair(topo::LinkClass::A);
  ASSERT_TRUE(pair.has_value());
  const topo::Route route = m.topology.routeGpuToGpu(pair->first,
                                                     pair->second);
  const auto& d = *m.device;
  const double terms = d.memcpyCallOverhead.us() + d.d2dDmaSetup.us() +
                       route.latency.us() + d.syncWait.us();
  const double copyUs = commScopeUs();
  EXPECT_GE(copyUs, terms);
  EXPECT_LE(copyUs - terms,
            route.bottleneck.transferTime(kProbe).us() + 1e-9);
}

TEST_P(D2dMechanismTest, CommScopeOverOsuGapIsPinned) {
  const Machine& m = machine();
  const auto [a, b] = osu::devicePair(m, topo::LinkClass::A);
  const double mpiUs =
      osu::LatencyBenchmark(m, a, b, mpisim::BufferSpace::Kind::Device)
          .truthOneWay(ByteCount::bytes(8), 1000)
          .us();
  // Within 0.5% of the pinned ratio.
  const double expected = GetParam().commScopeOverOsu;
  EXPECT_NEAR(commScopeUs() / mpiUs, expected, 5e-3 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    GpuMachines, D2dMechanismTest,
    ::testing::Values(D2dGap{"Frontier", 27.3}, D2dGap{"Summit", 1.38},
                      D2dGap{"Sierra", 1.28}, D2dGap{"Perlmutter", 1.09},
                      D2dGap{"Polaris", 3.15}, D2dGap{"Lassen", 1.31},
                      D2dGap{"RZVernal", 19.7}, D2dGap{"Tioga", 19.7}));

TEST(CrossMachine, Mi250xWaitLatencyIsTiny) {
  // Paper: "Kernel wait latencies are ... .1-.2 us for the MI250X
  // machines" — an order below the A100s and nearly two below the V100s.
  for (const char* name : {"Frontier", "RZVernal", "Tioga"}) {
    commscope::CommScope scope(byName(name));
    EXPECT_LT(scope.truthSyncWait().us(), 0.2) << name;
  }
}

TEST(CrossMachine, TrinityBeatsThetaDespiteSameArchitecture) {
  // The paper's KNL anomaly: same CPU family, wildly different results.
  EXPECT_LT(hostMpiUs(byName("Trinity")), 0.2 * hostMpiUs(byName("Theta")));
}

/// Flat MCDRAM mode would drop the quad-cache management factor: the
/// noise-free Table 4 "all" bandwidth times `cacheModeOverhead`.
struct FlatMode {
  const char* machine;
  double allThreadsGBps;
};

void PrintTo(const FlatMode& mode, std::ostream* os) {
  *os << ::testing::PrintToString(mode.machine);
}

class KnlFlatModeTest : public ::testing::TestWithParam<FlatMode> {};

TEST_P(KnlFlatModeTest, DroppingTheCacheFactorStaysBelowMcdramPeak) {
  // Trinity reaches ~399 GB/s, but Theta stays far below the >450 GB/s
  // MCDRAM figure: the cache factor does not explain its low bandwidth.
  const Machine& m = byName(GetParam().machine);
  babelstream::SimOmpBackend backend(
      m, ompenv::OmpConfig{m.coreCount(), ompenv::ProcBind::Spread,
                           ompenv::Places::Cores});
  const ByteCount array = ByteCount::mib(128);
  const auto op = babelstream::StreamOp::Dot;
  const double flat = babelstream::countedBytes(op, array).asDouble() /
                      backend.iterationTime(op, array).ns() *
                      m.hostMemory.cacheModeOverhead;
  EXPECT_NEAR(flat, GetParam().allThreadsGBps, 0.5);
  EXPECT_LT(flat, 450.0);
}

INSTANTIATE_TEST_SUITE_P(
    KnlMachines, KnlFlatModeTest,
    ::testing::Values(FlatMode{"Trinity", 399.4}, FlatMode{"Theta", 137.7}));

TEST(CrossMachine, EveryAcceleratorMachineRunsTheFullSuite) {
  for (const Machine* m : machines::gpuMachines()) {
    commscope::CommScope scope(*m);
    commscope::Config cfg;
    cfg.binaryRuns = 3;
    const auto all = scope.measureAll(cfg);
    EXPECT_GT(all.launchUs.mean, 0.0) << m->info.name;
    EXPECT_GT(all.waitUs.mean, 0.0) << m->info.name;
    EXPECT_GT(all.hostDeviceBandwidthGBps.mean, 20.0) << m->info.name;
    EXPECT_TRUE(all.d2dLatencyUs[0].has_value()) << m->info.name;
    EXPECT_GT(deviceStreamGBps(*m), 700.0) << m->info.name;
    EXPECT_GT(deviceMpiUs(*m), 0.0) << m->info.name;
  }
}

}  // namespace
}  // namespace nodebench
