#include "mpisim/analytic.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <vector>

#include "trace/trace.hpp"

namespace nodebench::mpisim::analytic {

namespace {

/// -1 = follow the environment default; 0/1 = forced off/on.
std::atomic<int> g_fastPathOverride{-1};

bool envDefault() {
  static const bool enabled = [] {
    const char* e = std::getenv("NODEBENCH_SIMCORE_FASTPATH");
    if (e != nullptr && (std::strcmp(e, "0") == 0 ||
                         std::strcmp(e, "off") == 0 ||
                         std::strcmp(e, "false") == 0)) {
      return false;
    }
    return true;
  }();
  return enabled;
}

/// Mirror of the (file-private) rule in world.cpp: host pairs with host,
/// device pairs with the peer rank's bound device.
BufferSpace mirroredSpace(const BufferSpace& srcSpace,
                          const RankPlacement& peer) {
  if (srcSpace.kind == BufferSpace::Kind::Host) {
    return BufferSpace::host();
  }
  NB_EXPECTS_MSG(peer.gpu.has_value(),
                 "device-space message to a rank without a bound GPU");
  return BufferSpace::onDevice(*peer.gpu);
}

PathTiming directionPath(const machines::Machine& machine,
                         const std::optional<InterNodeParams>& network,
                         const RankPlacement& src, const RankPlacement& dst,
                         const BufferSpace& srcSpace,
                         const BufferSpace& dstSpace) {
  if (src.node != dst.node) {
    NB_EXPECTS_MSG(network.has_value(),
                   "multi-node placements require InterNodeParams");
    return resolveInterNodePath(machine, *network, src, dst, srcSpace,
                                dstSpace);
  }
  return resolvePath(machine, src, dst, srcSpace, dstSpace);
}

/// A blocking send captured at the point its sender suspends. For eager
/// messages the sender never suspends and `arrival` is the payload arrival
/// time; for rendezvous it is the RTS arrival and the sender's continuation
/// runs inside `completeBlocking` (exactly when the CTS unblocks it).
struct Pending {
  bool rendezvous = false;
  Duration arrival = Duration::zero();
};

/// The four-variable recurrence state of a two-rank exchange, mutated with
/// the same floating-point operations, in the same order, as
/// `Communicator::send/recv/isend/wait` under the virtual-time scheduler.
/// Rank clocks `t[r]` mirror `VirtualProcess` clocks; `chan[src]` mirrors
/// `MpiWorld::channelFree(src, dst)` — for two ranks there is exactly one
/// outbound channel per rank (the directed pair channel intra-node, the
/// source node's NIC inter-node), so indexing by source rank is exact.
struct TwoRank {
  PathTiming path[2];  ///< [0] = rank0 -> rank1, [1] = rank1 -> rank0.
  Duration t[2] = {Duration::zero(), Duration::zero()};
  Duration chan[2] = {Duration::zero(), Duration::zero()};
  /// Arrival times of posted-but-unconsumed isend payloads per direction
  /// (mailbox FIFO; the kernels never interleave tag streams within one
  /// direction, so order alone identifies the match).
  std::deque<Duration> inflight[2];

  /// Communicator::send up to the sender's suspension point.
  Pending postBlocking(int src, ByteCount size) {
    const PathTiming& p = path[src];
    t[src] += p.sendOverhead;
    if (size <= p.eagerThreshold) {
      const Duration start = max(t[src], chan[src]);
      Duration transfer = Duration::zero();
      if (size.count() > 0) {
        transfer = p.eagerBandwidth.transferTime(size);
      }
      chan[src] = start + transfer;
      return Pending{false, start + transfer + p.latency};
    }
    return Pending{true, t[src] + p.latency};  // RTS posted; sender blocks.
  }

  /// The matching Communicator::recv — plus, for rendezvous, the sender's
  /// CTS-to-bulk continuation it unblocks.
  void completeBlocking(int dst, const Pending& ps, ByteCount size) {
    const int src = 1 - dst;
    const PathTiming& p = path[src];
    if (!ps.rendezvous) {
      t[dst] = max(t[dst], ps.arrival);
      t[dst] += p.recvOverhead;
      return;
    }
    t[dst] = max(t[dst], ps.arrival);  // RTS in hand
    t[dst] += p.recvOverhead + p.sendOverhead;
    const Duration cts = t[dst] + p.latency;
    t[src] = max(t[src], cts);  // sender resumes on the CTS
    t[src] += p.recvOverhead;
    t[src] = max(t[src], chan[src]);
    t[src] += p.rendezvousBandwidth.transferTime(size);
    chan[src] = t[src];
    const Duration data = t[src] + p.latency;
    t[dst] = max(t[dst], data);
    t[dst] += p.recvOverhead;
  }

  /// Communicator::isend; returns the request's `ready` time and queues
  /// the payload arrival for a later waitRecv.
  Duration postIsend(int src, ByteCount size) {
    const PathTiming& p = path[src];
    t[src] += p.sendOverhead;
    const Duration start = max(t[src], chan[src]);
    Duration ready;
    Duration arrival;
    if (size <= p.eagerThreshold) {
      Duration transfer = Duration::zero();
      if (size.count() > 0) {
        transfer = p.eagerBandwidth.transferTime(size);
      }
      chan[src] = start + transfer;
      arrival = chan[src] + p.latency;
      ready = t[src];
    } else {
      const Duration handshake =
          p.sendOverhead + p.recvOverhead + p.latency * 2.0;
      const Duration transfer = p.rendezvousBandwidth.transferTime(size);
      chan[src] = start + handshake + transfer;
      arrival = chan[src] + p.latency;
      ready = chan[src];
    }
    inflight[src].push_back(arrival);
    return ready;
  }

  /// Communicator::wait on a send request.
  void waitSend(int rank, Duration ready) { t[rank] = max(t[rank], ready); }

  /// Communicator::wait on a receive request (FIFO match).
  void waitRecv(int dst) {
    const int src = 1 - dst;
    NB_EXPECTS_MSG(!inflight[src].empty(),
                   "waitRecv with no posted isend in flight");
    const Duration arrival = inflight[src].front();
    inflight[src].pop_front();
    t[dst] = max(t[dst], arrival);
    t[dst] += path[src].recvOverhead;
  }
};

TwoRank makeTwoRank(const machines::Machine& machine,
                    const RankPlacement& rankA, const RankPlacement& rankB,
                    const BufferSpace& spaceA, const BufferSpace& spaceB,
                    const std::optional<InterNodeParams>& network) {
  const BufferSpace mirrorA = mirroredSpace(spaceA, rankB);
  const BufferSpace mirrorB = mirroredSpace(spaceB, rankA);
  NB_EXPECTS_MSG(mirrorA == spaceB && mirrorB == spaceA,
                 "closed-form composition requires symmetric buffer spaces");
  TwoRank w;
  w.path[0] = directionPath(machine, network, rankA, rankB, spaceA, mirrorA);
  w.path[1] = directionPath(machine, network, rankB, rankA, spaceB, mirrorB);
  return w;
}

}  // namespace

bool fastPathEnabled() {
  const int forced = g_fastPathOverride.load(std::memory_order_relaxed);
  return forced < 0 ? envDefault() : forced != 0;
}

void setFastPathEnabled(bool on) {
  g_fastPathOverride.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool fastPathEligible() {
  return fastPathEnabled() && trace::current() == nullptr;
}

Duration pingPongElapsed(const machines::Machine& machine,
                         const RankPlacement& rankA,
                         const RankPlacement& rankB,
                         const BufferSpace& spaceA, const BufferSpace& spaceB,
                         ByteCount messageSize, int iterations,
                         const std::optional<InterNodeParams>& network) {
  NB_EXPECTS(iterations > 0);
  TwoRank w = makeTwoRank(machine, rankA, rankB, spaceA, spaceB, network);
  for (int i = 0; i < iterations; ++i) {
    const Pending ping = w.postBlocking(0, messageSize);
    w.completeBlocking(1, ping, messageSize);
    const Pending pong = w.postBlocking(1, messageSize);
    w.completeBlocking(0, pong, messageSize);
  }
  return w.t[0];  // rank A started at virtual time zero
}

InterNodePairElapsed interNodePairElapsed(const machines::Machine& machine,
                                          const InterNodeParams& network,
                                          bool deviceBuffers,
                                          ByteCount messageSize,
                                          int iterations) {
  NB_EXPECTS(iterations > 0);
  // Mirrors netsim's makeTwoNodeWorld: rank 0 on node 0 and
  // rank 1 on node 1, both on core 0 (and GPU 0 in device mode).
  RankPlacement rank0;
  RankPlacement rank1;
  rank1.node = 1;
  BufferSpace data = BufferSpace::host();
  if (deviceBuffers) {
    rank0.gpu = 0;
    rank1.gpu = 0;
    data = BufferSpace::onDevice(0);
  }
  const std::optional<InterNodeParams> net(network);
  TwoRank w = makeTwoRank(machine, rank0, rank1, data, data, net);
  // The barrier exchanges 0-byte host-space messages on the same NIC
  // channels as the data phases, so only the path pair differs.
  const TwoRank hostW = makeTwoRank(machine, rank0, rank1,
                                    BufferSpace::host(), BufferSpace::host(),
                                    net);
  const PathTiming dataPath0 = w.path[0];
  const PathTiming dataPath1 = w.path[1];
  const ByteCount none{0};
  const auto barrier = [&] {
    // Rank 0: recv(1) then send(1); rank 1: send(0) then recv(0).
    w.path[0] = hostW.path[0];
    w.path[1] = hostW.path[1];
    const Pending arrive = w.postBlocking(1, none);
    w.completeBlocking(0, arrive, none);
    const Pending release = w.postBlocking(0, none);
    w.completeBlocking(1, release, none);
    w.path[0] = dataPath0;
    w.path[1] = dataPath1;
  };

  barrier();

  // Phase 1: latency ping-pong (rank 0 is the pinger).
  const Duration latStart = w.t[0];
  for (int i = 0; i < iterations; ++i) {
    const Pending ping = w.postBlocking(0, messageSize);
    w.completeBlocking(1, ping, messageSize);
    const Pending pong = w.postBlocking(1, messageSize);
    w.completeBlocking(0, pong, messageSize);
  }
  const Duration latencyElapsed = w.t[0] - latStart;

  barrier();

  // Phase 2: windowed 64 KiB stream closed by a 4-byte ack per window.
  constexpr int kWindow = 32;
  const ByteCount streamSize = ByteCount::kib(64);
  const ByteCount ack = ByteCount::bytes(4);
  const Duration bwStart = w.t[0];
  std::vector<Duration> readyA;
  for (int it = 0; it < iterations / 10 + 1; ++it) {
    readyA.clear();
    for (int wi = 0; wi < kWindow; ++wi) {
      readyA.push_back(w.postIsend(0, streamSize));
    }
    for (int wi = 0; wi < kWindow; ++wi) {
      w.waitRecv(1);
    }
    const Pending ackMsg = w.postBlocking(1, ack);
    for (const Duration ready : readyA) {
      w.waitSend(0, ready);
    }
    w.completeBlocking(0, ackMsg, ack);
  }
  return InterNodePairElapsed{latencyElapsed, w.t[0] - bwStart};
}

}  // namespace nodebench::mpisim::analytic
