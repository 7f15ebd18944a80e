#include "babelstream/driver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "babelstream/sim_device_backend.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "machines/registry.hpp"

namespace nodebench::babelstream {
namespace {

using machines::byName;
using ompenv::OmpConfig;
using ompenv::Places;
using ompenv::ProcBind;

TEST(Kernels, CountedFactorsMatchBabelStream40) {
  // Paper §3.1: numerator is 2x allocation for copy/mul/dot, 3x for
  // add/triad.
  EXPECT_DOUBLE_EQ(countedFactor(StreamOp::Copy), 2.0);
  EXPECT_DOUBLE_EQ(countedFactor(StreamOp::Mul), 2.0);
  EXPECT_DOUBLE_EQ(countedFactor(StreamOp::Dot), 2.0);
  EXPECT_DOUBLE_EQ(countedFactor(StreamOp::Add), 3.0);
  EXPECT_DOUBLE_EQ(countedFactor(StreamOp::Triad), 3.0);
}

TEST(Kernels, WriteAllocateAddsOneFillPerStore) {
  for (const StreamOp op : {StreamOp::Copy, StreamOp::Mul, StreamOp::Add,
                            StreamOp::Triad}) {
    EXPECT_DOUBLE_EQ(actualFactor(op), countedFactor(op) + 1.0);
  }
  // Dot has no store: actual == counted.
  EXPECT_DOUBLE_EQ(actualFactor(StreamOp::Dot), countedFactor(StreamOp::Dot));
}

TEST(Kernels, ArraysTouched) {
  EXPECT_EQ(arraysTouched(StreamOp::Copy), 2);
  EXPECT_EQ(arraysTouched(StreamOp::Add), 3);
  EXPECT_EQ(arraysTouched(StreamOp::Triad), 3);
  EXPECT_EQ(arraysTouched(StreamOp::Dot), 2);
}

TEST(Kernels, CountedBytes) {
  EXPECT_EQ(countedBytes(StreamOp::Triad, ByteCount::mib(1)).count(),
            3u * 1024 * 1024);
}

TEST(Kernels, Names) {
  EXPECT_EQ(streamOpName(StreamOp::Triad), "Triad");
  EXPECT_EQ(streamOpName(StreamOp::Dot), "Dot");
}

/// The write-allocate claim on every CPU machine. BabelStream's numerator
/// counts no write-allocate fill, so Dot, the only op that stores nothing,
/// reports the highest bandwidth — the emergent reason "best over all
/// ops" lands on Dot for the CPU tables — and an op that stores reports
/// its counted/actual traffic ratio times Dot's bandwidth (noise-free
/// truths).
class WriteAllocateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WriteAllocateTest, DotWinsOnWriteAllocateHosts) {
  const auto& m = byName(GetParam());
  SimOmpBackend backend(
      m, OmpConfig{m.coreCount(), ProcBind::Spread, Places::Cores});
  DriverConfig cfg;
  cfg.binaryRuns = 20;
  EXPECT_EQ(run(backend, cfg).best().op, StreamOp::Dot);

  const auto truthGBps = [&](StreamOp op) {
    return countedBytes(op, cfg.arrayBytes).asDouble() /
           backend.iterationTime(op, cfg.arrayBytes).ns();
  };
  const double dot = truthGBps(StreamOp::Dot);
  // Copy and Mul: counted 2S, actual 3S.
  EXPECT_NEAR(truthGBps(StreamOp::Copy) / dot, 2.0 / 3.0, 1e-3);
  EXPECT_NEAR(truthGBps(StreamOp::Mul) / dot, 2.0 / 3.0, 1e-3);
  // Add and Triad: counted 3S, actual 4S.
  EXPECT_NEAR(truthGBps(StreamOp::Add) / dot, 3.0 / 4.0, 1e-3);
  EXPECT_NEAR(truthGBps(StreamOp::Triad) / dot, 3.0 / 4.0, 1e-3);
}

std::vector<std::string> cpuMachineNames() {
  std::vector<std::string> names;
  for (const machines::Machine* m : machines::cpuMachines()) {
    names.push_back(m->info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    CpuMachines, WriteAllocateTest, ::testing::ValuesIn(cpuMachineNames()));

TEST(OmpBackend, BoundSpreadBeatsUnbound) {
  const auto& m = byName("Eagle");
  SimOmpBackend bound(m,
                      OmpConfig{m.coreCount(), ProcBind::Spread, Places::Cores});
  SimOmpBackend unbound(
      m, OmpConfig{m.coreCount(), ProcBind::NotSet, Places::NotSet});
  DriverConfig cfg;
  cfg.binaryRuns = 10;
  EXPECT_GT(run(bound, cfg).best().bandwidthGBps.mean,
            run(unbound, cfg).best().bandwidthGBps.mean);
}

TEST(OmpBackend, NoiseCvTracksTeamSize) {
  const auto& m = byName("Sawtooth");
  SimOmpBackend single(m, OmpConfig{1, ProcBind::True, Places::NotSet});
  SimOmpBackend team(m,
                     OmpConfig{m.coreCount(), ProcBind::True, Places::NotSet});
  EXPECT_DOUBLE_EQ(single.noiseCv(), m.hostMemory.cvSingle);
  EXPECT_DOUBLE_EQ(team.noiseCv(), m.hostMemory.cvAll);
}

TEST(DeviceBackend, TriadWinsOnDevices) {
  // Without write-allocate every op runs at HBM rate, so the op with the
  // most counted traffic per launch+sync overhead wins: Triad/Add.
  const auto& m = byName("Perlmutter");
  SimDeviceBackend backend(m, 0);
  DriverConfig cfg;
  cfg.arrayBytes = ByteCount::gib(1);
  cfg.binaryRuns = 20;
  const RunResult result = run(backend, cfg);
  EXPECT_TRUE(result.best().op == StreamOp::Triad ||
              result.best().op == StreamOp::Add);
}

TEST(DeviceBackend, ReportedBandwidthMatchesPaperTarget) {
  for (const char* name : {"Frontier", "Summit", "Polaris"}) {
    const auto& m = byName(name);
    SimDeviceBackend backend(m, 0);
    DriverConfig cfg;
    cfg.arrayBytes = ByteCount::gib(1);
    cfg.binaryRuns = 50;
    const double measured = run(backend, cfg).best().bandwidthGBps.mean;
    const double target = name == std::string("Frontier")   ? 1336.35
                          : name == std::string("Summit")   ? 786.43
                                                            : 1362.75;
    EXPECT_NEAR(measured / target, 1.0, 0.01) << name;
  }
}

TEST(DeviceBackend, InvalidDeviceRejected) {
  EXPECT_THROW(SimDeviceBackend(byName("Polaris"), 4), PreconditionError);
}

TEST(Driver, BandwidthIncreasesWithSizeUntilPlateau) {
  // On the device backend small vectors are launch-overhead dominated;
  // the size sweep must be monotone non-decreasing up to the plateau.
  for (const char* name : {"Frontier", "Summit"}) {
    const auto& m = byName(name);
    SimDeviceBackend backend(m, 0);
    DriverConfig cfg;
    cfg.binaryRuns = 5;
    std::vector<OpResult> sweep;
    for (ByteCount size = ByteCount::kib(16); size <= ByteCount::mib(256);
         size = size * 2ull) {
      cfg.arrayBytes = size;
      sweep.push_back(measureOne(backend, StreamOp::Triad, cfg));
    }
    ASSERT_GT(sweep.size(), 10u);
    EXPECT_LT(sweep.front().bandwidthGBps.mean,
              0.5 * sweep.back().bandwidthGBps.mean)
        << name;
    for (std::size_t i = 1; i < sweep.size(); ++i) {
      EXPECT_GT(sweep[i].bandwidthGBps.mean,
                0.9 * sweep[i - 1].bandwidthGBps.mean)
          << name;
    }
  }
}

TEST(Driver, SummaryCountsMatchBinaryRuns) {
  const auto& m = byName("Eagle");
  SimOmpBackend backend(m, OmpConfig{1, ProcBind::True, Places::NotSet});
  DriverConfig cfg;
  cfg.binaryRuns = 33;
  const RunResult result = run(backend, cfg);
  ASSERT_EQ(result.ops.size(), 5u);
  for (const auto& op : result.ops) {
    EXPECT_EQ(op.bandwidthGBps.count, 33u);
    EXPECT_GT(op.bandwidthGBps.mean, 0.0);
  }
}

TEST(Driver, DeterministicForFixedSeed) {
  const auto& m = byName("Eagle");
  SimOmpBackend backend(m, OmpConfig{1, ProcBind::True, Places::NotSet});
  DriverConfig cfg;
  cfg.binaryRuns = 10;
  const double a = run(backend, cfg).best().bandwidthGBps.mean;
  const double b = run(backend, cfg).best().bandwidthGBps.mean;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Driver, ValidatesConfig) {
  const auto& m = byName("Eagle");
  SimOmpBackend backend(m, OmpConfig{1, ProcBind::True, Places::NotSet});
  DriverConfig cfg;
  cfg.binaryRuns = 0;
  EXPECT_THROW((void)run(backend, cfg), PreconditionError);
}

}  // namespace
}  // namespace nodebench::babelstream
