#include "ompenv/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "machines/registry.hpp"
#include "shape_recount.hpp"

namespace nodebench::ompenv {
namespace {

using topo::CoreId;
using topo::NodeTopology;
using topo::NumaId;
using topo::SocketId;

/// 2 sockets x 4 cores x 2-way SMT.
NodeTopology dualSocket() {
  NodeTopology node;
  for (int s = 0; s < 2; ++s) {
    const SocketId socket = node.addSocket("X");
    const NumaId numa = node.addNumaDomain(socket);
    node.addCores(numa, 4, 2);
  }
  return node;
}

TEST(Placement, DefaultThreadCountIsAllHardwareThreads) {
  const NodeTopology node = dualSocket();
  const ThreadPlacement p = place(node, OmpConfig{});
  EXPECT_EQ(p.threadCount(), 16);
  EXPECT_FALSE(p.bound());
  EXPECT_EQ(p.coresUsed(), 8);
  EXPECT_EQ(p.maxSmtOccupancy(), 2);
}

TEST(Placement, SingleThreadLandsOnCoreZero) {
  const NodeTopology node = dualSocket();
  const ThreadPlacement p =
      place(node, OmpConfig{1, ProcBind::True, Places::NotSet});
  ASSERT_EQ(p.threadCount(), 1);
  EXPECT_TRUE(p.bound());
  EXPECT_EQ(p.threads()[0].core, (CoreId{0}));
  EXPECT_EQ(p.threads()[0].smtSlot, 0);
  EXPECT_EQ(p.socketsUsed(), 1);
}

TEST(Placement, ClosePolicyFillsFirstSocketFirst) {
  const NodeTopology node = dualSocket();
  const ThreadPlacement p =
      place(node, OmpConfig{4, ProcBind::Close, Places::Threads});
  EXPECT_EQ(p.socketsUsed(), 1);
  EXPECT_EQ(p.coresUsed(), 4);
  EXPECT_EQ(p.maxSmtOccupancy(), 1);
}

TEST(Placement, SpreadPolicyCoversBothSockets) {
  const NodeTopology node = dualSocket();
  const ThreadPlacement p =
      place(node, OmpConfig{4, ProcBind::Spread, Places::Cores});
  EXPECT_EQ(p.socketsUsed(), 2);
  EXPECT_EQ(p.coresUsed(), 4);
  // Interleaved: socket0.core0, socket1.core0, socket0.core1, socket1.core1.
  EXPECT_EQ(p.threads()[0].core, (CoreId{0}));
  EXPECT_EQ(p.threads()[1].core, (CoreId{4}));
}

TEST(Placement, SmtSlotsFillOnlyAfterAllCores) {
  const NodeTopology node = dualSocket();
  const ThreadPlacement p =
      place(node, OmpConfig{10, ProcBind::Close, Places::Threads});
  EXPECT_EQ(p.coresUsed(), 8);
  EXPECT_EQ(p.maxSmtOccupancy(), 2);
  int slot1 = 0;
  for (const auto& t : p.threads()) {
    slot1 += t.smtSlot == 1 ? 1 : 0;
  }
  EXPECT_EQ(slot1, 2);  // 10 threads = 8 cores + 2 SMT seconds
}

TEST(Placement, OversubscriptionClampsToHardware) {
  const NodeTopology node = dualSocket();
  const ThreadPlacement p =
      place(node, OmpConfig{1000, ProcBind::True, Places::NotSet});
  EXPECT_EQ(p.threadCount(), 16);
}

TEST(Placement, UnboundFlagPropagates) {
  const NodeTopology node = dualSocket();
  EXPECT_FALSE(place(node, OmpConfig{8, ProcBind::NotSet, Places::NotSet}).bound());
  EXPECT_FALSE(place(node, OmpConfig{8, ProcBind::False, Places::NotSet}).bound());
  EXPECT_TRUE(place(node, OmpConfig{8, ProcBind::True, Places::NotSet}).bound());
}

TEST(Placement, NumaDomainsUsed) {
  const NodeTopology node = dualSocket();
  EXPECT_EQ(place(node, OmpConfig{2, ProcBind::Close, Places::Threads})
                .numaDomainsUsed(),
            1);
  EXPECT_EQ(place(node, OmpConfig{2, ProcBind::Spread, Places::Cores})
                .numaDomainsUsed(),
            2);
}

/// The shape `place()` stores equals a std::set recount of its threads on
/// every registry machine under every Table 1 configuration.
TEST(Placement, StoredShapeMatchesRecountOnRegistryMachines) {
  for (const machines::Machine& m : machines::allMachines()) {
    for (const OmpConfig& cfg :
         table1Combinations(m.coreCount(), m.hardwareThreadCount())) {
      SCOPED_TRACE(m.info.name + " " + cfg.toString());
      const ThreadPlacement p = place(m.topology, cfg);
      EXPECT_GT(p.threadCount(), 0);
      expectShapeMatchesRecount(p, m.topology);
    }
  }
}

/// Property sweep over team sizes: placement always yields the requested
/// (clamped) count, distinct (core, slot) pairs, and valid slot indices.
class PlacementPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PlacementPropertyTest, SlotsAreValidAndDistinct) {
  const NodeTopology node = dualSocket();
  for (const ProcBind bind :
       {ProcBind::NotSet, ProcBind::True, ProcBind::Close, ProcBind::Spread}) {
    const ThreadPlacement p =
        place(node, OmpConfig{GetParam(), bind, Places::NotSet});
    EXPECT_EQ(p.threadCount(), std::min(GetParam(), 16));
    std::set<std::pair<int, int>> seen;
    for (const auto& t : p.threads()) {
      EXPECT_GE(t.core.value, 0);
      EXPECT_LT(t.core.value, node.coreCount());
      EXPECT_GE(t.smtSlot, 0);
      EXPECT_LT(t.smtSlot, node.core(t.core).smtThreads);
      EXPECT_TRUE(seen.insert({t.core.value, t.smtSlot}).second)
          << "duplicate slot assignment";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TeamSizes, PlacementPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 9, 15, 16, 17));

}  // namespace
}  // namespace nodebench::ompenv
