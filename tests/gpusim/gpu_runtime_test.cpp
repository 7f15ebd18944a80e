#include "gpusim/gpu_runtime.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "machines/registry.hpp"

namespace nodebench::gpusim {
namespace {

using machines::byName;
using namespace nodebench::literals;

TEST(GpuRuntime, RequiresAcceleratorMachine) {
  EXPECT_THROW(GpuRuntime rt(byName("Eagle")), PreconditionError);
}

TEST(GpuRuntime, DeviceCountMatchesTopology) {
  GpuRuntime rt(byName("Summit"));
  EXPECT_EQ(rt.deviceCount(), 6);
  EXPECT_EQ(GpuRuntime(byName("Frontier")).deviceCount(), 8);
}

TEST(GpuRuntime, LaunchCostsHostTimeKernelRunsAsync) {
  const auto& m = byName("Perlmutter");
  GpuRuntime rt(m);
  const StreamId s = rt.defaultStream(0);
  rt.launchKernel(s, 100_us);
  // Host clock advanced only by the launch overhead.
  EXPECT_NEAR(rt.hostNow().us(), m.device->kernelLaunch.us(), 1e-12);
  EXPECT_FALSE(rt.streamQuery(s));
  // Synchronize drains the kernel plus the wait cost.
  rt.streamSynchronize(s);
  EXPECT_NEAR(rt.hostNow().us(),
              m.device->kernelLaunch.us() + 100.0 + m.device->syncWait.us(),
              1e-9);
  EXPECT_TRUE(rt.streamQuery(s));
}

TEST(GpuRuntime, EmptyQueueSynchronizeCostsWaitOnly) {
  const auto& m = byName("Frontier");
  GpuRuntime rt(m);
  rt.deviceSynchronize(0);
  EXPECT_NEAR(rt.hostNow().us(), m.device->syncWait.us(), 1e-12);
}

TEST(GpuRuntime, StreamsAreFifo) {
  const auto& m = byName("Polaris");
  GpuRuntime rt(m);
  const StreamId s = rt.createStream(0);
  rt.launchKernel(s, 10_us);
  rt.launchKernel(s, 20_us);
  const Duration tail = rt.streamTail(s);
  // Second kernel starts after the first: tail >= 30 us of kernel time.
  EXPECT_GE(tail.us(), 30.0);
  rt.streamSynchronize(s);
  EXPECT_GE(rt.hostNow(), tail);
}

TEST(GpuRuntime, IndependentStreamsOverlap) {
  const auto& m = byName("Polaris");
  GpuRuntime rt(m);
  const StreamId s0 = rt.createStream(0);
  const StreamId s1 = rt.createStream(1);
  rt.launchKernel(s0, 100_us);
  rt.launchKernel(s1, 100_us);
  rt.streamSynchronize(s0);
  rt.streamSynchronize(s1);
  // Overlapping execution: far less than 200 us + overheads.
  EXPECT_LT(rt.hostNow().us(), 150.0);
}

/// Paper §4: BabelStream uses one of the MI250X's two Graphics Compute
/// Dies, so the package's bandwidth is "roughly double" the reported one.
class Mi250xGcdTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Mi250xGcdTest, BothGcdsDoubleThePackageBandwidth) {
  // A 1 GiB Triad on GCDs 0 and 1 at once: launches and syncs are
  // serialized on the host, so the gain is just under 2x.
  const auto& m = byName(GetParam());
  GpuRuntime rt(m);
  const double traffic = 3.0 * ByteCount::gib(1).asDouble();  // Triad
  const Duration kernel = Duration::nanoseconds(
      traffic / m.device->hbmBw.bytesPerNanosecond());
  const StreamId s0 = rt.defaultStream(0);
  const StreamId s1 = rt.defaultStream(1);
  rt.launchKernel(s0, kernel);
  rt.streamSynchronize(s0);
  const double single = traffic / rt.hostNow().ns();
  rt.reset();
  rt.launchKernel(s0, kernel);
  rt.launchKernel(s1, kernel);
  rt.streamSynchronize(s0);
  rt.streamSynchronize(s1);
  const double dual = 2.0 * traffic / rt.hostNow().ns();
  EXPECT_GE(dual / single, 1.99);
  EXPECT_LE(dual / single, 2.00);
}

std::vector<std::string> mi250xMachineNames() {
  std::vector<std::string> names;
  for (const auto& group : machines::acceleratorGroups()) {
    if (group.name == "MI250X") {
      for (const machines::Machine* m : group.members) {
        names.push_back(m->info.name);
      }
    }
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Mi250xMachines, Mi250xGcdTest, ::testing::ValuesIn(mi250xMachineNames()));

TEST(GpuRuntime, H2dTransferUsesHostLink) {
  const auto& m = byName("Perlmutter");
  GpuRuntime rt(m);
  const auto host = rt.allocPinnedHost(ByteCount::mib(1));
  const auto dev = rt.allocDevice(0, ByteCount::mib(1));
  const StreamId s = rt.defaultStream(0);
  rt.memcpyAsync(s, dev, host, ByteCount::mib(1));
  rt.streamSynchronize(s);
  const auto& link = m.topology.hostGpuLink(m.topology.gpu(topo::GpuId{0}).socket,
                                            topo::GpuId{0});
  const double expected =
      m.device->memcpyCallOverhead.us() + m.device->h2dDmaSetup.us() +
      link.latency.us() +
      link.bandwidth.transferTime(ByteCount::mib(1)).us() +
      m.device->syncWait.us();
  EXPECT_NEAR(rt.hostNow().us(), expected, 1e-9);
}

TEST(GpuRuntime, D2dDirectionSymmetry) {
  const auto& m = byName("Frontier");
  GpuRuntime rt(m);
  const auto b0 = rt.allocDevice(0, ByteCount::kib(1));
  const auto b1 = rt.allocDevice(1, ByteCount::kib(1));
  const StreamId s0 = rt.defaultStream(0);
  rt.memcpyAsync(s0, b1, b0, ByteCount::kib(1));
  rt.streamSynchronize(s0);
  const double fwd = rt.hostNow().us();
  rt.reset();
  const StreamId s1 = rt.defaultStream(1);
  rt.memcpyAsync(s1, b0, b1, ByteCount::kib(1));
  rt.streamSynchronize(s1);
  EXPECT_NEAR(rt.hostNow().us(), fwd, 1e-9);
}

TEST(GpuRuntime, D2dClassResidualApplied) {
  // Frontier class C (single IF link) is slower than class B (dual) per
  // the paper's Table 6; both slower than the class A anchor.
  const auto& m = byName("Frontier");
  GpuRuntime rt(m);
  const ByteCount sz = ByteCount::bytes(128);
  const auto timeFor = [&](topo::LinkClass c) {
    const auto pair = m.topology.representativePair(c);
    GpuRuntime fresh(m);
    const auto src = fresh.allocDevice(pair->first.value, sz);
    const auto dst = fresh.allocDevice(pair->second.value, sz);
    const StreamId s = fresh.defaultStream(pair->first.value);
    fresh.memcpyAsync(s, dst, src, sz);
    fresh.streamSynchronize(s);
    return fresh.hostNow().us();
  };
  EXPECT_NEAR(timeFor(topo::LinkClass::A), 12.02, 0.01);
  EXPECT_NEAR(timeFor(topo::LinkClass::B), 12.56, 0.01);
  EXPECT_NEAR(timeFor(topo::LinkClass::C), 12.68, 0.01);
  EXPECT_NEAR(timeFor(topo::LinkClass::D), 12.02, 0.01);
}

TEST(GpuRuntime, IntraDeviceCopyUsesHbm) {
  const auto& m = byName("Perlmutter");
  GpuRuntime rt(m);
  const auto a = rt.allocDevice(0, ByteCount::mib(64));
  const auto b = rt.allocDevice(0, ByteCount::mib(64));
  const StreamId s = rt.defaultStream(0);
  rt.memcpyAsync(s, b, a, ByteCount::mib(64));
  rt.streamSynchronize(s);
  const double expected =
      m.device->memcpyCallOverhead.us() + m.device->d2dDmaSetup.us() +
      2.0 * ByteCount::mib(64).asDouble() /
          m.device->hbmBw.bytesPerNanosecond() / 1000.0 +
      m.device->syncWait.us();
  EXPECT_NEAR(rt.hostNow().us(), expected, 1e-9);
}

TEST(GpuRuntime, AllocationValidation) {
  GpuRuntime rt(byName("Summit"));
  EXPECT_THROW((void)rt.allocDevice(99, ByteCount::kib(1)),
               PreconditionError);
  EXPECT_THROW((void)rt.allocDevice(0, ByteCount::gib(32)),
               PreconditionError);  // V100 has 16 GiB
  EXPECT_THROW((void)rt.allocPinnedHost(ByteCount{0}), PreconditionError);
}

TEST(GpuRuntime, MemcpyValidation) {
  GpuRuntime rt(byName("Summit"));
  const auto h = rt.allocPinnedHost(ByteCount::kib(1));
  const auto d = rt.allocDevice(0, ByteCount::kib(1));
  const StreamId s = rt.defaultStream(0);
  EXPECT_THROW(rt.memcpyAsync(s, d, h, ByteCount::kib(2)),
               PreconditionError);  // exceeds buffers
  const auto h2 = rt.allocPinnedHost(ByteCount::kib(1));
  EXPECT_THROW(rt.memcpyAsync(s, h2, h, ByteCount::kib(1)),
               PreconditionError);  // host-to-host
  const StreamId wrong = rt.defaultStream(1);
  EXPECT_THROW(rt.memcpyAsync(wrong, d, h, ByteCount::kib(1)),
               PreconditionError);  // stream on non-participating device
}

TEST(GpuRuntime, ResetClearsClocks) {
  GpuRuntime rt(byName("Polaris"));
  const StreamId s = rt.defaultStream(0);
  rt.launchKernel(s, 5_us);
  rt.streamSynchronize(s);
  EXPECT_GT(rt.hostNow(), Duration::zero());
  rt.reset();
  EXPECT_EQ(rt.hostNow(), Duration::zero());
  EXPECT_EQ(rt.streamTail(s), Duration::zero());
}

}  // namespace
}  // namespace nodebench::gpusim
