#include "ompenv/placement.hpp"

#include <algorithm>

namespace nodebench::ompenv {

namespace {

/// Cores in id order (close policy / OS default order).
std::vector<topo::CoreId> coresInOrder(const topo::NodeTopology& topo) {
  std::vector<topo::CoreId> out;
  out.reserve(topo.coreCount());
  for (int i = 0; i < topo.coreCount(); ++i) {
    out.push_back(topo::CoreId{i});
  }
  return out;
}

/// Cores interleaved across sockets (spread policy): socket0.core0,
/// socket1.core0, socket0.core1, ...
std::vector<topo::CoreId> coresSpread(const topo::NodeTopology& topo) {
  std::vector<std::vector<topo::CoreId>> bySocket(topo.socketCount());
  for (int i = 0; i < topo.coreCount(); ++i) {
    const topo::CoreId id{i};
    bySocket[topo.core(id).socket.value].push_back(id);
  }
  std::vector<topo::CoreId> out;
  out.reserve(topo.coreCount());
  std::size_t index = 0;
  for (bool any = true; any; ++index) {
    any = false;
    for (auto& socketCores : bySocket) {
      if (index < socketCores.size()) {
        out.push_back(socketCores[index]);
        any = true;
      }
    }
  }
  return out;
}

int totalHardwareThreads(const topo::NodeTopology& topo) {
  int total = 0;
  for (int i = 0; i < topo.coreCount(); ++i) {
    total += topo.core(topo::CoreId{i}).smtThreads;
  }
  return total;
}

}  // namespace

ThreadPlacement place(const topo::NodeTopology& topo, const OmpConfig& cfg) {
  NB_EXPECTS(topo.coreCount() > 0);
  const int hwThreads = totalHardwareThreads(topo);
  int n = cfg.numThreads.value_or(hwThreads);
  NB_EXPECTS(n > 0);
  n = std::min(n, hwThreads);

  const bool spread = cfg.procBind == ProcBind::Spread;
  const std::vector<topo::CoreId> order =
      spread ? coresSpread(topo) : coresInOrder(topo);

  ThreadPlacement placement;
  placement.bound_ = cfg.bound();
  placement.threads_.reserve(static_cast<std::size_t>(n));
  std::vector<bool> coreSeen(static_cast<std::size_t>(topo.coreCount()));
  std::vector<bool> numaSeen(static_cast<std::size_t>(topo.numaCount()));
  std::vector<bool> socketSeen(static_cast<std::size_t>(topo.socketCount()));
  // 1 the first time `id` is seen, 0 after.
  const auto firstSight = [](std::vector<bool>& seen, int id) {
    const auto slot = static_cast<std::size_t>(id);
    const bool first = !seen.at(slot);
    seen[slot] = true;
    return first ? 1 : 0;
  };

  // One thread per core first; wrap into higher SMT slots only once every
  // core in the visit order already carries a thread. This matches how
  // both close and spread policies behave for the Table 1 team sizes
  // (#cores fills slot 0 everywhere; #threads fills all SMT slots).
  int assigned = 0;
  for (int smtSlot = 0; assigned < n; ++smtSlot) {
    bool progressed = false;
    for (const topo::CoreId core : order) {
      if (assigned >= n) {
        break;
      }
      const topo::CoreInfo& info = topo.core(core);
      if (smtSlot < info.smtThreads) {
        placement.threads_.push_back(ThreadSlot{core, smtSlot});
        placement.coresUsed_ += firstSight(coreSeen, core.value);
        placement.numaDomainsUsed_ += firstSight(numaSeen, info.numa.value);
        placement.socketsUsed_ += firstSight(socketSeen, info.socket.value);
        placement.maxSmtOccupancy_ =
            std::max(placement.maxSmtOccupancy_, smtSlot + 1);
        ++assigned;
        progressed = true;
      }
    }
    NB_ENSURES(progressed);  // guaranteed because n <= hwThreads
  }
  return placement;
}

}  // namespace nodebench::ompenv
