#include "commscope/commscope.hpp"

#include <gtest/gtest.h>

#include "machines/registry.hpp"
#include "report/paper_reference.hpp"

namespace nodebench::commscope {
namespace {

using machines::byName;
using topo::LinkClass;

TEST(CommScope, RejectsCpuOnlyMachines) {
  EXPECT_THROW(CommScope scope(byName("Trinity")), PreconditionError);
}

TEST(CommScope, TruthLaunchEqualsMachineParameter) {
  for (const char* name : {"Frontier", "Summit", "Polaris"}) {
    const auto& m = byName(name);
    CommScope scope(m);
    EXPECT_NEAR(scope.truthKernelLaunch().us(), m.device->kernelLaunch.us(),
                1e-12)
        << name;
  }
}

TEST(CommScope, TruthWaitEqualsMachineParameter) {
  const auto& m = byName("Sierra");
  CommScope scope(m);
  EXPECT_NEAR(scope.truthSyncWait().us(), m.device->syncWait.us(), 1e-12);
}

TEST(CommScope, TruthH2dHitsCalibrationTargets) {
  // 128 B latency and 1 GiB bandwidth must land on the paper's Table 6
  // cells by construction.
  const auto& ref = report::paper::table6Row("Perlmutter");
  CommScope scope(byName("Perlmutter"));
  EXPECT_NEAR(scope.truthHostDeviceTime(ByteCount::bytes(128)).us(),
              ref.hostDeviceLatencyUs.mean, 1e-6);
  const Duration t = scope.truthHostDeviceTime(ByteCount::gib(1));
  EXPECT_NEAR(ByteCount::gib(1).asDouble() / t.ns(),
              ref.hostDeviceBandwidthGBps.mean, 1e-6);
}

TEST(CommScope, TruthD2dPerClassHitsCalibrationTargets) {
  const auto& ref = report::paper::table6Row("RZVernal");
  CommScope scope(byName("RZVernal"));
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(ref.d2dUs[c].has_value());
    EXPECT_NEAR(
        scope.truthD2dTime(static_cast<LinkClass>(c), ByteCount::bytes(128))
            .us(),
        ref.d2dUs[c]->mean, 1e-6)
        << "class " << c;
  }
}

TEST(CommScope, MissingClassThrows) {
  CommScope scope(byName("Perlmutter"));
  EXPECT_THROW(
      (void)scope.truthD2dTime(LinkClass::B, ByteCount::bytes(128)),
      PreconditionError);
}

TEST(CommScope, AggregatedSummariesHaveRequestedRuns) {
  CommScope scope(byName("Tioga"));
  Config cfg;
  cfg.binaryRuns = 25;
  const Summary launch = scope.kernelLaunchUs(cfg);
  EXPECT_EQ(launch.count, 25u);
  EXPECT_NEAR(launch.mean, 2.15, 0.05);
  EXPECT_GT(launch.stddev, 0.0);
}

TEST(CommScope, MeasureAllCoversPresentClassesOnly) {
  {
    CommScope scope(byName("Polaris"));
    Config cfg;
    cfg.binaryRuns = 10;
    const MachineResults r = scope.measureAll(cfg);
    EXPECT_TRUE(r.d2dLatencyUs[0].has_value());
    EXPECT_FALSE(r.d2dLatencyUs[1].has_value());
    EXPECT_FALSE(r.d2dLatencyUs[2].has_value());
    EXPECT_FALSE(r.d2dLatencyUs[3].has_value());
  }
  {
    CommScope scope(byName("Summit"));
    Config cfg;
    cfg.binaryRuns = 10;
    const MachineResults r = scope.measureAll(cfg);
    EXPECT_TRUE(r.d2dLatencyUs[0].has_value());
    EXPECT_TRUE(r.d2dLatencyUs[1].has_value());
    EXPECT_FALSE(r.d2dLatencyUs[2].has_value());
  }
}

TEST(CommScope, D2dBandwidthReflectsLinkClassCapacity) {
  // Quad-link class A moves 1 GiB faster than single-link class C on
  // MI250X machines.
  CommScope scope(byName("Frontier"));
  Config cfg;
  cfg.binaryRuns = 5;
  const double bwA = scope.d2dBandwidthGBps(LinkClass::A, cfg).mean;
  const double bwC = scope.d2dBandwidthGBps(LinkClass::C, cfg).mean;
  EXPECT_GT(bwA, 2.0 * bwC);
}

TEST(CommScope, DeterministicAggregation) {
  CommScope scope(byName("Lassen"));
  Config cfg;
  cfg.binaryRuns = 20;
  EXPECT_DOUBLE_EQ(scope.kernelLaunchUs(cfg).mean,
                   scope.kernelLaunchUs(cfg).mean);
}

TEST(CommScope, ConfigValidation) {
  CommScope scope(byName("Lassen"));
  Config cfg;
  cfg.binaryRuns = 0;
  EXPECT_THROW((void)scope.kernelLaunchUs(cfg), PreconditionError);
}

}  // namespace
}  // namespace nodebench::commscope
