#include "machines/calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>

#include "babelstream/kernels.hpp"
#include "babelstream/sim_device_backend.hpp"
#include "commscope/commscope.hpp"
#include "machines/builders.hpp"
#include "machines/node_shapes.hpp"
#include "machines/registry.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"

namespace nodebench::machines {
namespace {

using namespace nodebench::literals;

TEST(HostMemoryCalibration, InvertsTheStreamModel) {
  Machine m;
  m.topology = xeonDualSocketNode("X", 8);
  applyHostMemoryCalibration(
      m, HostMemoryTargets{10.0, 100.0, 150.0, "150", 1.0});
  EXPECT_DOUBLE_EQ(m.hostMemory.perCoreBw.inGBps(), 10.0);
  // Two NUMA domains share the 100 GB/s target.
  EXPECT_DOUBLE_EQ(m.hostMemory.perNumaSaturation.inGBps(), 50.0);
  EXPECT_EQ(m.hostMemory.peakNote, "150");
}

TEST(HostMemoryCalibration, CacheModeFactorRaisesPrimitives) {
  Machine m;
  m.topology = knlNode("KNL", 64, 4);
  applyHostMemoryCalibration(
      m, HostMemoryTargets{12.0, 300.0, 450.0, ">450", 1.15});
  EXPECT_DOUBLE_EQ(m.hostMemory.perCoreBw.inGBps(), 12.0 * 1.15);
  EXPECT_DOUBLE_EQ(m.hostMemory.perNumaSaturation.inGBps(), 300.0 * 1.15);
  EXPECT_DOUBLE_EQ(m.hostMemory.cacheModeOverhead, 1.15);
}

TEST(HostMemoryCalibration, RejectsBadTargets) {
  Machine m;
  m.topology = xeonDualSocketNode("X", 4);
  EXPECT_THROW(applyHostMemoryCalibration(
                   m, HostMemoryTargets{0.0, 100.0, 0.0, "", 1.0}),
               PreconditionError);
  EXPECT_THROW(applyHostMemoryCalibration(
                   m, HostMemoryTargets{10.0, 100.0, 0.0, "", 0.9}),
               PreconditionError);
}

TEST(CommScopeCalibration, SolvedModelHitsTargets) {
  // Build a fresh MI250X machine and verify that the *forward* model —
  // overheads + route + size/bw + wait — lands exactly on the calibration
  // targets at both probe sizes.
  Machine m = makeFrontier();
  const DeviceParams& d = *m.device;
  const auto& link =
      m.topology.hostGpuLink(m.topology.gpu(topo::GpuId{0}).socket,
                             topo::GpuId{0});
  const double latNs = d.memcpyCallOverhead.ns() + d.h2dDmaSetup.ns() +
                       link.latency.ns() +
                       128.0 / link.bandwidth.bytesPerNanosecond() +
                       d.syncWait.ns();
  EXPECT_NEAR(latNs / 1000.0, 12.91, 1e-6);

  const double S = 1024.0 * 1024.0 * 1024.0;
  const double bwTimeNs = d.memcpyCallOverhead.ns() + d.h2dDmaSetup.ns() +
                          link.latency.ns() +
                          S / link.bandwidth.bytesPerNanosecond() +
                          d.syncWait.ns();
  EXPECT_NEAR(S / bwTimeNs, 24.87, 1e-6);
}

TEST(CommScopeCalibration, AnchorClassHasZeroResidual) {
  for (const char* name :
       {"Frontier", "Summit", "Sierra", "Perlmutter", "Polaris", "Lassen",
        "RZVernal", "Tioga"}) {
    const Machine& m = byName(name);
    // Class A is the anchor on every studied machine.
    EXPECT_NEAR(m.device->d2dClassResidual[0].ns(), 0.0, 1e-6) << name;
  }
}

TEST(CommScopeCalibration, LaunchAndWaitAreVerbatim) {
  const Machine& m = byName("Polaris");
  EXPECT_DOUBLE_EQ(m.device->kernelLaunch.us(), 1.83);
  EXPECT_DOUBLE_EQ(m.device->syncWait.us(), 1.32);
}

TEST(DeviceStreamCalibration, ForwardModelReproducesTarget) {
  const Machine& m = byName("Summit");
  const DeviceParams& d = *m.device;
  // Triad at a 1 GiB vector: traffic = 3 GiB, one launch + one sync.
  const double traffic = 3.0 * 1024.0 * 1024.0 * 1024.0;
  const double timeNs = d.kernelLaunch.ns() + d.syncWait.ns() +
                        traffic / d.hbmBw.bytesPerNanosecond();
  EXPECT_NEAR(traffic / timeNs, 786.43, 1e-6);
}

TEST(DeviceStreamCalibration, AchievableBelowPeak) {
  for (const Machine* m : gpuMachines()) {
    EXPECT_LT(m->device->hbmBw.inGBps(), m->device->hbmPeak.inGBps())
        << m->info.name;
  }
}

TEST(DeviceMpiCalibration, BasePlusRouteEqualsTarget) {
  const Machine& m = byName("Summit");
  const auto pair = m.topology.representativePair(topo::LinkClass::A);
  ASSERT_TRUE(pair.has_value());
  const auto route = m.topology.routeGpuToGpu(pair->first, pair->second);
  EXPECT_NEAR(m.deviceMpi->baseOneWay.us() + route.latency.us(), 18.10, 1e-9);
}

TEST(DeviceMpiCalibration, Mi250xBaseIsSubMicrosecond) {
  // The GPU-RMA path: the paper's key MI250X observation.
  for (const char* name : {"Frontier", "RZVernal", "Tioga"}) {
    EXPECT_LT(byName(name).deviceMpi->baseOneWay.us(), 1.0) << name;
  }
  // Host-staging path on NVIDIA systems is tens of microseconds.
  for (const char* name : {"Summit", "Sierra", "Lassen"}) {
    EXPECT_GT(byName(name).deviceMpi->baseOneWay.us(), 10.0) << name;
  }
}

/// Four noise-free Frontier cells: Table 5 device bandwidth and OSU D2D
/// latency, Table 6 H<->D latency and Comm|Scope D2D latency.
constexpr std::array<const char*, 4> kSensitivityCells{
    "device bandwidth", "OSU D2D", "H<->D latency", "Comm|Scope D2D"};

std::array<double, 4> sensitivityCells(const Machine& m) {
  babelstream::SimDeviceBackend backend(m, 0);
  const ByteCount array = ByteCount::gib(1);
  double deviceGBps = 0.0;
  for (const babelstream::StreamOp op : babelstream::kAllOps) {
    deviceGBps = std::max(deviceGBps,
                          babelstream::countedBytes(op, array).asDouble() /
                              backend.iterationTime(op, array).ns());
  }
  const auto [a, b] = osu::devicePair(m, topo::LinkClass::A);
  const osu::LatencyBenchmark osuD2d(m, a, b,
                                     mpisim::BufferSpace::Kind::Device);
  commscope::CommScope scope(m);
  const ByteCount probe = ByteCount::bytes(128);
  return std::array<double, 4>{
      deviceGBps, osuD2d.truthOneWay(ByteCount::bytes(8), 1000).us(),
      scope.truthHostDeviceTime(probe).us(),
      scope.truthD2dTime(topo::LinkClass::A, probe).us()};
}

/// One row of the perturbation matrix: a primitive raised by 10% and the
/// relative change it should cause in each cell.
struct Perturbation {
  const char* primitive;
  void (*raise)(Machine&);
  std::array<double, 4> change;
};

void PrintTo(const Perturbation& row, std::ostream* os) {
  *os << ::testing::PrintToString(row.primitive);
}

class CalibrationSensitivity
    : public ::testing::TestWithParam<Perturbation> {};

TEST_P(CalibrationSensitivity, FrontierPerturbationMatrixIsNearDiagonal) {
  // Each reproduced cell responds only to the primitives its model
  // composes, which keeps the calibration inversion well-conditioned
  // (DESIGN.md §1). Raise one Frontier primitive by 10% and compare the
  // four cells before and after.
  const Perturbation& row = GetParam();
  const Machine& frontier = byName("Frontier");
  const auto before = sensitivityCells(frontier);
  Machine perturbed = frontier;
  row.raise(perturbed);
  const auto after = sensitivityCells(perturbed);
  for (std::size_t i = 0; i < kSensitivityCells.size(); ++i) {
    // Moved cells within 0.1 percentage points of the expected change;
    // every other cell moves by less than 0.2%.
    const double tolerance = row.change[i] != 0.0 ? 0.001 : 0.002;
    EXPECT_NEAR(after[i] / before[i] - 1.0, row.change[i], tolerance)
        << row.primitive << " +10% -> " << kSensitivityCells[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    FrontierPrimitives, CalibrationSensitivity,
    ::testing::Values(
        Perturbation{"hbmBw",
                     [](Machine& m) {
                       m.device->hbmBw = m.device->hbmBw * 1.1;
                     },
                     {0.10, 0.0, 0.0, 0.0}},
        Perturbation{"kernelLaunch",
                     [](Machine& m) {
                       m.device->kernelLaunch = m.device->kernelLaunch * 1.1;
                     },
                     {0.0, 0.0, 0.0, 0.0}},
        Perturbation{"syncWait",
                     [](Machine& m) {
                       m.device->syncWait = m.device->syncWait * 1.1;
                     },
                     {0.0, 0.0, 0.0, 0.0}},
        Perturbation{"d2dDmaSetup",
                     [](Machine& m) {
                       m.device->d2dDmaSetup = m.device->d2dDmaSetup * 1.1;
                     },
                     {0.0, 0.0, 0.0, 0.066}},
        Perturbation{"deviceMpiBase",
                     [](Machine& m) {
                       m.deviceMpi->baseOneWay = m.deviceMpi->baseOneWay * 1.1;
                     },
                     {0.0, 0.08, 0.0, 0.0}}));

TEST(Calibration, RequiresDeviceParams) {
  Machine m;
  m.topology = a100Node("E", 32);
  EXPECT_THROW(applyCommScopeCalibration(m, CommScopeTargets{}),
               PreconditionError);
  EXPECT_THROW(applyDeviceStreamCalibration(m, 100.0, 200.0, "x", 0.01),
               PreconditionError);
}

}  // namespace
}  // namespace nodebench::machines
