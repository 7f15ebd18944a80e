#include "netsim/network.hpp"

#include <gtest/gtest.h>

#include "machines/registry.hpp"

namespace nodebench::netsim {
namespace {

using machines::byName;

TEST(Network, EveryMachineHasAnInterconnect) {
  for (const machines::Machine& m : machines::allMachines()) {
    const auto net = networkFor(m);
    EXPECT_FALSE(net.name.empty()) << m.info.name;
    EXPECT_GT(net.nicOverhead, Duration::zero()) << m.info.name;
    EXPECT_GT(net.injectionBandwidth.inGBps(), 0.0) << m.info.name;
    EXPECT_GT(net.switchRadix, 0) << m.info.name;
  }
}

TEST(Network, FamiliesMapToExpectedFabrics) {
  EXPECT_EQ(networkFor(byName("Frontier")).name, "Slingshot-11");
  EXPECT_EQ(networkFor(byName("Perlmutter")).name, "Slingshot-11");
  EXPECT_EQ(networkFor(byName("Summit")).name, "EDR-IB dual-rail");
  EXPECT_EQ(networkFor(byName("Trinity")).name, "Aries");
  EXPECT_EQ(networkFor(byName("Manzano")).name, "Omni-Path");
  EXPECT_EQ(networkFor(byName("Eagle")).name, "EDR-IB");
}

TEST(Network, HopCountRespectsLeafRadix) {
  mpisim::InterNodeParams p;
  p.switchRadix = 4;
  EXPECT_EQ(p.hops(0, 3), 1);   // same leaf
  EXPECT_EQ(p.hops(0, 4), 3);   // across the spine
  EXPECT_EQ(p.hops(5, 6), 1);
}

TEST(Network, InterNodeLatencyExceedsIntraNode) {
  const auto& m = byName("Frontier");
  InterNodeConfig cfg;
  cfg.binaryRuns = 10;
  cfg.iterations = 50;
  const auto result = measureInterNode(m, cfg);
  // Host MPI on-socket is 0.45 us; the network path must cost more.
  EXPECT_GT(result.latencyUs.mean, 1.5);
  EXPECT_LT(result.latencyUs.mean, 10.0);
}

TEST(Network, DeviceBuffersAddStagingOnV100) {
  InterNodeConfig cfg;
  cfg.binaryRuns = 5;
  cfg.iterations = 20;
  InterNodeConfig dev = cfg;
  dev.deviceBuffers = true;

  const auto& summit = byName("Summit");
  const double hostUs = measureInterNode(summit, cfg).latencyUs.mean;
  const double devUs = measureInterNode(summit, dev).latencyUs.mean;
  EXPECT_GT(devUs, hostUs + 10.0);  // ~18 us staging

  const auto& frontier = byName("Frontier");
  const double fHost = measureInterNode(frontier, cfg).latencyUs.mean;
  const double fDev = measureInterNode(frontier, dev).latencyUs.mean;
  EXPECT_LT(fDev - fHost, 1.0);  // GPU-RMA adds almost nothing
}

TEST(Network, MultiNodePlacementRequiresNetwork) {
  const auto& m = byName("Eagle");
  std::vector<mpisim::RankPlacement> ranks{
      mpisim::RankPlacement{topo::CoreId{0}, std::nullopt, 0},
      mpisim::RankPlacement{topo::CoreId{0}, std::nullopt, 1}};
  EXPECT_THROW(mpisim::MpiWorld world(m, ranks), PreconditionError);
  EXPECT_NO_THROW(mpisim::MpiWorld world(m, ranks, networkFor(m)));
}

TEST(Network, SameCoreOnDifferentNodesIsLegal) {
  // Nodes are copies of the machine: core 0 exists on each of them.
  const auto& m = byName("Eagle");
  mpisim::MpiWorld world(
      m,
      {mpisim::RankPlacement{topo::CoreId{0}, std::nullopt, 0},
       mpisim::RankPlacement{topo::CoreId{0}, std::nullopt, 1}},
      networkFor(m));
  double latency = 0.0;
  world.runEach({
      [&](mpisim::Communicator& c) {
        const Duration start = c.now();
        c.send(1, 1, ByteCount::bytes(8));
        c.recv(1, 1, ByteCount::bytes(8));
        latency = (c.now() - start).us() / 2.0;
      },
      [](mpisim::Communicator& c) {
        c.recv(0, 1, ByteCount::bytes(8));
        c.send(0, 1, ByteCount::bytes(8));
      },
  });
  EXPECT_GT(latency, 1.0);  // network, not the SMP fabric
}

}  // namespace
}  // namespace nodebench::netsim
