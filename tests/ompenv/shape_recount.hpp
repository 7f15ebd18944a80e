#pragma once
/// \file shape_recount.hpp
/// \brief Test oracle for the placement shape: recounts distinct cores,
/// NUMA domains and sockets, and the SMT occupancy, from a placement's
/// threads with `std::set`, independently of the counts `ompenv::place`
/// stores while it assigns them.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ompenv/placement.hpp"
#include "topo/topology.hpp"

namespace nodebench::ompenv {

inline void expectShapeMatchesRecount(const ThreadPlacement& p,
                                      const topo::NodeTopology& node) {
  std::set<int> cores;
  std::set<int> numas;
  std::set<int> sockets;
  int maxSmt = 0;
  for (const ThreadSlot& t : p.threads()) {
    cores.insert(t.core.value);
    numas.insert(node.core(t.core).numa.value);
    sockets.insert(node.core(t.core).socket.value);
    maxSmt = std::max(maxSmt, t.smtSlot + 1);
  }
  EXPECT_EQ(p.coresUsed(), static_cast<int>(cores.size()));
  EXPECT_EQ(p.numaDomainsUsed(), static_cast<int>(numas.size()));
  EXPECT_EQ(p.socketsUsed(), static_cast<int>(sockets.size()));
  EXPECT_EQ(p.maxSmtOccupancy(), maxSmt);
}

}  // namespace nodebench::ompenv
