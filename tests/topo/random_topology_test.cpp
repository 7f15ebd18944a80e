/// Randomized property tests: generate arbitrary valid topologies from a
/// seed and check that routing, classification and placement invariants
/// hold on shapes no hand-written machine exercises.

#include <gtest/gtest.h>

#include <set>

#include "core/rng.hpp"
#include "ompenv/placement.hpp"
#include "topo/topology.hpp"

#include "../ompenv/shape_recount.hpp"

namespace nodebench::topo {
namespace {

using namespace nodebench::literals;

/// Random node: 1-4 sockets x 1-4 NUMA x 2-8 cores, optionally 2-8 GPUs
/// with random peer links.
NodeTopology randomNode(std::uint64_t seed, bool withGpus) {
  Xoshiro256 rng(seed);
  NodeTopology node;
  const int sockets = 1 + static_cast<int>(rng.uniformInt(4));
  std::vector<SocketId> socketIds;
  for (int s = 0; s < sockets; ++s) {
    socketIds.push_back(node.addSocket("RndCPU"));
    const int numas = 1 + static_cast<int>(rng.uniformInt(4));
    for (int d = 0; d < numas; ++d) {
      const NumaId numa = node.addNumaDomain(socketIds.back());
      node.addCores(numa, 2 + static_cast<int>(rng.uniformInt(7)),
                    1 + static_cast<int>(rng.uniformInt(4)));
    }
  }
  for (int a = 0; a < sockets; ++a) {
    for (int b = a + 1; b < sockets; ++b) {
      node.connectSockets(socketIds[a], socketIds[b], LinkType::UPI,
                          0.1_us, Bandwidth::gbps(40.0));
    }
  }
  if (withGpus) {
    const int gpus = 2 + static_cast<int>(rng.uniformInt(7));
    std::vector<GpuId> gpuIds;
    for (int g = 0; g < gpus; ++g) {
      const SocketId home = socketIds[rng.uniformInt(sockets)];
      gpuIds.push_back(node.addGpu("RndGPU", home, ByteCount::gib(16)));
      node.connectHostGpu(home, gpuIds.back(), LinkType::PCIe4, 0.4_us,
                          Bandwidth::gbps(25.0));
    }
    for (int a = 0; a < gpus; ++a) {
      for (int b = a + 1; b < gpus; ++b) {
        if (rng.uniform01() < 0.5) {
          const int count = 1 << rng.uniformInt(3);  // 1, 2 or 4 links
          node.connectGpuPeer(gpuIds[a], gpuIds[b],
                              LinkType::InfinityFabric, count, 0.09_us,
                              Bandwidth::gbps(50.0 * count));
        }
      }
    }
    node.setGpuFlavor(GpuInterconnectFlavor::InfinityFabric);
  }
  return node;
}

class RandomTopologyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopologyTest, CpuPathsAreSymmetricAndReflexive) {
  const NodeTopology node = randomNode(GetParam(), false);
  Xoshiro256 rng(GetParam() ^ 0xabcd);
  for (int trial = 0; trial < 20; ++trial) {
    const CoreId a{static_cast<int>(rng.uniformInt(node.coreCount()))};
    const CoreId b{static_cast<int>(rng.uniformInt(node.coreCount()))};
    const CpuPath ab = node.cpuPath(a, b);
    const CpuPath ba = node.cpuPath(b, a);
    EXPECT_EQ(ab.sameNuma, ba.sameNuma);
    EXPECT_EQ(ab.sameSocket, ba.sameSocket);
    EXPECT_EQ(ab.meshDistance, ba.meshDistance);
    if (a == b) {
      EXPECT_TRUE(ab.sameCore);
      EXPECT_TRUE(ab.sameNuma);
    }
    // sameNuma implies sameSocket (NUMA domains never span sockets).
    if (ab.sameNuma) {
      EXPECT_TRUE(ab.sameSocket);
    }
  }
}

TEST_P(RandomTopologyTest, EveryGpuPairRoutesAndClassifies) {
  const NodeTopology node = randomNode(GetParam(), true);
  for (int i = 0; i < node.gpuCount(); ++i) {
    for (int j = 0; j < node.gpuCount(); ++j) {
      if (i == j) {
        continue;
      }
      const Route route = node.routeGpuToGpu(GpuId{i}, GpuId{j});
      EXPECT_FALSE(route.hops.empty());
      EXPECT_GT(route.latency, Duration::zero());
      EXPECT_GT(route.bottleneck.inGBps(), 0.0);
      for (const Link* hop : route.hops) {
        EXPECT_GE(hop->bandwidth.inGBps(), route.bottleneck.inGBps());
      }
      const LinkClass c = node.gpuPairClass(GpuId{i}, GpuId{j});
      // Direct link <=> class A/B/C under the InfinityFabric flavour.
      EXPECT_EQ(node.directGpuLink(GpuId{i}, GpuId{j}) != nullptr,
                c != LinkClass::D);
    }
  }
}

TEST_P(RandomTopologyTest, PresentClassesHaveRepresentatives) {
  const NodeTopology node = randomNode(GetParam(), true);
  for (const LinkClass c : node.presentGpuLinkClasses()) {
    const auto pair = node.representativePair(c);
    ASSERT_TRUE(pair.has_value());
    EXPECT_EQ(node.gpuPairClass(pair->first, pair->second), c);
  }
}

TEST_P(RandomTopologyTest, PlacementsRemainValidOnArbitraryShapes) {
  const NodeTopology node = randomNode(GetParam(), false);
  for (const auto bind :
       {ompenv::ProcBind::NotSet, ompenv::ProcBind::Close,
        ompenv::ProcBind::Spread}) {
    for (const int threads : {1, 3, node.coreCount(), 10000}) {
      const auto p = ompenv::place(
          node, ompenv::OmpConfig{threads, bind, ompenv::Places::NotSet});
      EXPECT_GE(p.threadCount(), 1);
      std::set<std::pair<int, int>> seen;
      for (const auto& t : p.threads()) {
        EXPECT_LT(t.core.value, node.coreCount());
        EXPECT_LT(t.smtSlot, node.core(t.core).smtThreads);
        EXPECT_TRUE(seen.insert({t.core.value, t.smtSlot}).second);
      }
      EXPECT_LE(p.coresUsed(), node.coreCount());
      EXPECT_LE(p.socketsUsed(), node.socketCount());
    }
  }
}

/// The shape `place()` stores equals a std::set recount of its threads on
/// arbitrary shapes, including mixed SMT widths within one node.
TEST_P(RandomTopologyTest, PlacementShapeMatchesRecount) {
  const NodeTopology node = randomNode(GetParam(), false);
  for (const auto bind :
       {ompenv::ProcBind::NotSet, ompenv::ProcBind::True,
        ompenv::ProcBind::Close, ompenv::ProcBind::Spread}) {
    for (const int threads : {1, 3, node.coreCount(), 10000}) {
      SCOPED_TRACE(threads);
      ompenv::expectShapeMatchesRecount(
          ompenv::place(node, ompenv::OmpConfig{threads, bind,
                                                ompenv::Places::NotSet}),
          node);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u));

}  // namespace
}  // namespace nodebench::topo
