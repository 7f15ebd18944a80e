#include "mpisim/world.hpp"

#include <algorithm>
#include <string>

#include "core/rng.hpp"

namespace nodebench::mpisim {

namespace {

constexpr int kBarrierTag = -4711;

/// The receiver's buffer space mirrors the sender's kind: host pairs with
/// host, device pairs with the peer rank's bound device. This matches
/// every benchmark in the paper (both OSU modes use symmetric buffers).
BufferSpace mirroredSpace(const BufferSpace& srcSpace,
                          const RankPlacement& peer) {
  if (srcSpace.kind == BufferSpace::Kind::Host) {
    return BufferSpace::host();
  }
  NB_EXPECTS_MSG(peer.gpu.has_value(),
                 "device-space message to a rank without a bound GPU");
  return BufferSpace::onDevice(*peer.gpu);
}

}  // namespace

MpiWorld::MpiWorld(const machines::Machine& machine,
                   std::vector<RankPlacement> placements,
                   std::optional<InterNodeParams> network)
    : machine_(&machine),
      placements_(std::move(placements)),
      network_(std::move(network)),
      traceSink_(trace::current()) {
  NB_EXPECTS_MSG(placements_.size() >= 2, "an MPI world needs >= 2 ranks");
  for (const RankPlacement& p : placements_) {
    NB_EXPECTS(p.core.value >= 0 &&
               p.core.value < machine.topology.coreCount());
    if (p.gpu) {
      NB_EXPECTS(*p.gpu >= 0 && *p.gpu < machine.topology.gpuCount());
    }
    NB_EXPECTS(p.node >= 0);
    NB_EXPECTS_MSG(p.node == 0 || network_.has_value(),
                   "multi-node placements require InterNodeParams");
  }
}

PathTiming MpiWorld::pathBetween(int src, int dst,
                                 const BufferSpace& srcSpace,
                                 const BufferSpace& dstSpace) const {
  const RankPlacement& a = placements_[src];
  const RankPlacement& b = placements_[dst];
  if (a.node != b.node) {
    return resolveInterNodePath(*machine_, *network_, a, b, srcSpace,
                                dstSpace);
  }
  return resolvePath(*machine_, a, b, srcSpace, dstSpace);
}

void MpiWorld::run(const RankFn& fn) {
  NB_EXPECTS(fn != nullptr);
  // The SPMD path used by every measurement loop builds its process
  // closures over the one `fn` directly. It used to materialize
  // std::vector<RankFn>(N, fn) first — N copies of a std::function whose
  // captured state usually exceeds the small-buffer optimization, i.e. N
  // heap allocations per run(), multiplied by every binary repetition of
  // every benchmark. The closures borrow `fn`, which outlives
  // scheduler_.run() below.
  resetRunState();
  std::vector<sim::VirtualTimeScheduler::ProcessFn> procs;
  procs.reserve(placements_.size());
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    procs.push_back([this, i, &fn](sim::VirtualProcess& proc) {
      Communicator comm(*this, proc, static_cast<int>(i));
      fn(comm);
    });
  }
  scheduler_.run(procs);
}

void MpiWorld::runEach(const std::vector<RankFn>& fns) {
  NB_EXPECTS(fns.size() == placements_.size());
  resetRunState();
  std::vector<sim::VirtualTimeScheduler::ProcessFn> procs;
  procs.reserve(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    procs.push_back([this, i, &fns](sim::VirtualProcess& proc) {
      Communicator comm(*this, proc, static_cast<int>(i));
      fns[i](comm);
    });
  }
  scheduler_.run(procs);
}

void MpiWorld::resetRunState() {
  mailboxes_.assign(placements_.size(), Mailbox{});
  channels_.assign(placements_.size() * placements_.size(),
                   Duration::zero());
  int maxNode = 0;
  for (const RankPlacement& p : placements_) {
    maxNode = std::max(maxNode, p.node);
  }
  nodeInjection_.assign(static_cast<std::size_t>(maxNode) + 1,
                        Duration::zero());
  pairSeq_.assign(placements_.size() * placements_.size(), 0);
  retransmits_ = 0;
  nextRtsId_ = 1;
}

bool MpiWorld::tryMatch(int myRank, int source, int tag, MsgKind kind,
                        Message& out) {
  auto& box = mailboxes_[myRank].messages;
  const auto it = std::find_if(box.begin(), box.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag && m.kind == kind;
  });
  if (it == box.end()) {
    return false;
  }
  out = *it;
  box.erase(it);
  return true;
}

Duration MpiWorld::lossDelay(int src, int dst, Duration base) {
  if (!network_ || network_->packetLossRate <= 0.0 || !interNode(src, dst)) {
    return Duration::zero();
  }
  const InterNodeParams& net = *network_;
  NB_EXPECTS(net.packetLossRate < 1.0);
  NB_EXPECTS(net.maxRetransmits >= 1);
  NB_EXPECTS(net.retransmitTimeout > Duration::zero());
  const std::size_t pair =
      static_cast<std::size_t>(src) * placements_.size() +
      static_cast<std::size_t>(dst);
  // One sequence number per original message; each transmission attempt
  // draws from its own SplitMix64 stream, so the draw depends only on the
  // message identity — never on scheduling or other pairs' traffic.
  const std::uint64_t seq = pairSeq_[pair]++;
  SplitMix64 draws(net.faultSeed ^
                   (0x9e3779b97f4a7c15ull * (seq + 1) +
                    0xd1b54a32d192ed03ull * static_cast<std::uint64_t>(src) +
                    0x94d049bb133111ebull * static_cast<std::uint64_t>(dst)));
  Duration delay = Duration::zero();
  Duration backoff = net.retransmitTimeout;
  for (int attempt = 0;; ++attempt) {
    const double u =
        static_cast<double>(draws.next() >> 11) * 0x1.0p-53;
    if (u >= net.packetLossRate) {
      return delay;  // this copy got through
    }
    if (attempt + 1 >= net.maxRetransmits) {
      throw Error("inter-node message " + std::to_string(src) + "->" +
                  std::to_string(dst) + " lost after " +
                  std::to_string(net.maxRetransmits) +
                  " transmission attempts (packet loss rate " +
                  std::to_string(net.packetLossRate) + ")");
    }
    ++retransmits_;
    if (traceSink_ != nullptr) {
      // The lost copy went out at base+delay and its backoff runs until
      // the resend — the instant Retransmit event each Loss pairs with.
      const int srcNode = placements_[src].node;
      const int dstNode = placements_[dst].node;
      traceSink_->event(trace::Event{trace::Category::Loss,
                                     trace::ActorKind::Node, srcNode,
                                     dstNode, base + delay, backoff, 0});
      traceSink_->event(trace::Event{
          trace::Category::Retransmit, trace::ActorKind::Node, srcNode,
          dstNode, base + delay + backoff, Duration::zero(), 0});
      traceSink_->count("mpisim.retransmits");
    }
    delay += backoff;
    backoff = min(backoff * 2.0, net.retransmitCap);
  }
}

void MpiWorld::emitLinkEvent(int src, int dst, Duration start,
                             Duration end) {
  if (traceSink_ == nullptr || end <= start) {
    return;
  }
  if (interNode(src, dst)) {
    traceSink_->event(trace::Event{
        trace::Category::LinkOccupancy, trace::ActorKind::Node,
        placements_[src].node, placements_[dst].node, start, end - start,
        0});
    return;
  }
  traceSink_->event(trace::Event{trace::Category::LinkOccupancy,
                                 trace::ActorKind::Link, src * size() + dst,
                                 dst, start, end - start, 0});
}

Duration& MpiWorld::channelFree(int src, int dst) {
  if (interNode(src, dst)) {
    // All inter-node traffic leaving one node shares its NIC.
    return nodeInjection_[placements_[src].node];
  }
  return channels_[static_cast<std::size_t>(src) * placements_.size() + dst];
}

int Communicator::size() const { return world_->size(); }

void Communicator::emitRankEvent(trace::Category category, Duration begin,
                                 int peer, std::uint64_t bytes) {
  trace::TraceBuffer* tb = world_->traceSink_;
  if (tb == nullptr) {
    return;
  }
  // Per rank, ops are recorded in execution order with begin = the op's
  // entry time, so rank-lane events are monotone in virtual time (an
  // invariant the trace property suite asserts).
  tb->event(trace::Event{category, trace::ActorKind::Rank, rank_, peer,
                         begin, now() - begin, bytes});
}

void Communicator::send(int dest, int tag, ByteCount size,
                        BufferSpace space) {
  MpiWorld& w = *world_;
  NB_EXPECTS(dest >= 0 && dest < w.size());
  NB_EXPECTS_MSG(dest != rank_, "self-sends are not modelled");
  const Duration traceBegin = now();
  const RankPlacement& peer = w.placements_[dest];
  const BufferSpace dstSpace = mirroredSpace(space, peer);
  const PathTiming path = w.pathBetween(rank_, dest, space, dstSpace);

  proc_->advance(path.sendOverhead);

  if (size <= path.eagerThreshold) {
    Duration& chan = w.channelFree(rank_, dest);
    const Duration start = max(now(), chan);
    Duration transfer = Duration::zero();
    if (size.count() > 0) {
      transfer = path.eagerBandwidth.transferTime(size);
    }
    // Lost copies keep the channel (the NIC, for inter-node pairs) busy
    // through their backoff-and-resend cycles.
    transfer += w.lossDelay(rank_, dest, start);
    chan = start + transfer;
    w.emitLinkEvent(rank_, dest, start, chan);
    w.mailboxes_[dest].messages.push_back(
        MpiWorld::Message{rank_, tag, MpiWorld::MsgKind::Eager, size,
                          start + transfer + path.latency, 0});
    proc_->wake(dest);
    emitRankEvent(trace::Category::Send, traceBegin, dest, size.count());
    return;
  }

  // Rendezvous: RTS -> (wait for CTS) -> bulk data.
  const std::uint64_t rtsId = w.nextRtsId_++;
  w.mailboxes_[dest].messages.push_back(MpiWorld::Message{
      rank_, tag, MpiWorld::MsgKind::Rts, size, now() + path.latency, rtsId});
  proc_->wake(dest);

  MpiWorld::Message cts;
  proc_->blockUntil([&] {
    return w.tryMatch(rank_, dest, tag, MpiWorld::MsgKind::Cts, cts);
  });
  NB_ENSURES_MSG(cts.rtsId == rtsId, "rendezvous handshake out of order");
  proc_->advanceTo(cts.arrival);
  proc_->advance(path.recvOverhead);  // processing the CTS costs software time

  proc_->advanceTo(max(now(), w.channelFree(rank_, dest)));
  const Duration bulkStart = now();
  // A blocking sender sits through any retransmit backoffs of the bulk
  // transfer (its buffer is pinned until the copy drains).
  proc_->advance(path.rendezvousBandwidth.transferTime(size) +
                 w.lossDelay(rank_, dest, bulkStart));
  w.channelFree(rank_, dest) = now();
  w.emitLinkEvent(rank_, dest, bulkStart, now());
  w.mailboxes_[dest].messages.push_back(MpiWorld::Message{
      rank_, tag, MpiWorld::MsgKind::Data, size, now() + path.latency, rtsId});
  proc_->wake(dest);
  emitRankEvent(trace::Category::Send, traceBegin, dest, size.count());
}

void Communicator::recv(int source, int tag, ByteCount size,
                        BufferSpace space) {
  MpiWorld& w = *world_;
  NB_EXPECTS(source >= 0 && source < w.size());
  NB_EXPECTS_MSG(source != rank_, "self-receives are not modelled");
  const Duration traceBegin = now();
  const RankPlacement& peer = w.placements_[source];
  // Constants of the reverse control path (CTS) match the forward path by
  // symmetry of the transport model.
  const BufferSpace peerSpace = mirroredSpace(space, peer);
  const PathTiming path = w.pathBetween(source, rank_, peerSpace, space);

  // Either an eager payload or a rendezvous RTS can arrive first; match
  // whichever the sender chose for this size.
  MpiWorld::Message msg;
  proc_->blockUntil([&] {
    return w.tryMatch(rank_, source, tag, MpiWorld::MsgKind::Eager, msg) ||
           w.tryMatch(rank_, source, tag, MpiWorld::MsgKind::Rts, msg);
  });
  NB_EXPECTS_MSG(msg.size <= size, "matched message exceeds receive buffer");

  if (msg.kind == MpiWorld::MsgKind::Eager) {
    proc_->advanceTo(msg.arrival);
    proc_->advance(path.recvOverhead);
    emitRankEvent(trace::Category::Recv, traceBegin, source,
                  msg.size.count());
    return;
  }

  // Rendezvous: processing the RTS and posting the CTS both cost software
  // time — this handshake overhead is why real MPI latency curves step up
  // at the eager threshold even though the rendezvous copy path is faster
  // per byte.
  proc_->advanceTo(msg.arrival);
  proc_->advance(path.recvOverhead + path.sendOverhead);
  w.mailboxes_[source].messages.push_back(
      MpiWorld::Message{rank_, tag, MpiWorld::MsgKind::Cts, ByteCount{0},
                        now() + path.latency, msg.rtsId});
  proc_->wake(source);

  MpiWorld::Message data;
  proc_->blockUntil([&] {
    return w.tryMatch(rank_, source, tag, MpiWorld::MsgKind::Data, data);
  });
  NB_ENSURES_MSG(data.rtsId == msg.rtsId, "rendezvous data out of order");
  proc_->advanceTo(data.arrival);
  proc_->advance(path.recvOverhead);
  emitRankEvent(trace::Category::Recv, traceBegin, source, msg.size.count());
}

Request Communicator::isend(int dest, int tag, ByteCount size,
                            BufferSpace space) {
  MpiWorld& w = *world_;
  NB_EXPECTS(dest >= 0 && dest < w.size());
  NB_EXPECTS_MSG(dest != rank_, "self-sends are not modelled");
  const Duration traceBegin = now();
  const RankPlacement& peer = w.placements_[dest];
  const BufferSpace dstSpace = mirroredSpace(space, peer);
  const PathTiming path = w.pathBetween(rank_, dest, space, dstSpace);

  proc_->advance(path.sendOverhead);  // post cost

  Duration& chan = w.channelFree(rank_, dest);
  const Duration start = max(now(), chan);
  // Retransmit cycles of a lost copy extend the channel occupancy either
  // way (the NIC is re-sending instead of taking new work).
  const Duration lossDelay = w.lossDelay(rank_, dest, start);
  Duration ready;
  Duration arrival;
  if (size <= path.eagerThreshold) {
    // Eager: buffered immediately; payload pipelines on the channel.
    Duration transfer = Duration::zero();
    if (size.count() > 0) {
      transfer = path.eagerBandwidth.transferTime(size);
    }
    chan = start + transfer + lossDelay;
    arrival = chan + path.latency;
    ready = now();  // buffer reusable right away
  } else {
    // Simplified pipelined rendezvous: the handshake and the single-copy
    // transfer are modelled analytically on the channel (a full
    // message-level handshake would need a progress thread, which real
    // non-blocking rendezvous implementations hide in the library).
    const Duration handshake =
        path.sendOverhead + path.recvOverhead + path.latency * 2.0;
    const Duration transfer = path.rendezvousBandwidth.transferTime(size);
    chan = start + handshake + transfer + lossDelay;
    arrival = chan + path.latency;
    ready = chan;  // sender buffer in use until the copy drains
  }
  w.emitLinkEvent(rank_, dest, start, chan);
  w.mailboxes_[dest].messages.push_back(MpiWorld::Message{
      rank_, tag, MpiWorld::MsgKind::Eager, size, arrival, 0});
  proc_->wake(dest);

  emitRankEvent(trace::Category::Send, traceBegin, dest, size.count());
  Request r(Request::Kind::Send, dest, tag, size, ready);
  r.space_ = space;
  return r;
}

Request Communicator::irecv(int source, int tag, ByteCount size,
                            BufferSpace space) {
  MpiWorld& w = *world_;
  NB_EXPECTS(source >= 0 && source < w.size());
  NB_EXPECTS_MSG(source != rank_, "self-receives are not modelled");
  Request r(Request::Kind::Recv, source, tag, size, Duration::zero());
  r.space_ = space;
  return r;
}

void Communicator::wait(Request& request) {
  NB_EXPECTS_MSG(request.valid(), "wait on an invalid/completed request");
  MpiWorld& w = *world_;
  if (request.kind_ == Request::Kind::Send) {
    proc_->advanceTo(request.ready_);
    request.id_ = -1;
    return;
  }
  const Duration traceBegin = now();
  // Receive: match like a blocking recv (isend always posts Eager-kind
  // messages; a blocking rendezvous sender may post an RTS instead).
  const RankPlacement& peer = w.placements_[request.peer_];
  const BufferSpace peerSpace = mirroredSpace(request.space_, peer);
  const PathTiming path =
      w.pathBetween(request.peer_, rank_, peerSpace, request.space_);
  MpiWorld::Message msg;
  proc_->blockUntil([&] {
    return w.tryMatch(rank_, request.peer_, request.tag_,
                      MpiWorld::MsgKind::Eager, msg);
  });
  NB_EXPECTS_MSG(msg.size <= request.size_,
                 "matched message exceeds receive buffer");
  proc_->advanceTo(msg.arrival);
  proc_->advance(path.recvOverhead);
  emitRankEvent(trace::Category::Recv, traceBegin, request.peer_,
                msg.size.count());
  request.id_ = -1;
}

void Communicator::waitAll(std::vector<Request>& requests) {
  for (Request& r : requests) {
    wait(r);
  }
}

void Communicator::sendrecv(int dest, int sendTag, ByteCount sendSize,
                            int source, int recvTag, ByteCount recvSize,
                            BufferSpace space) {
  Request out = isend(dest, sendTag, sendSize, space);
  recv(source, recvTag, recvSize, space);
  wait(out);
}

void Communicator::barrier() {
  const ByteCount none{0};
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) {
      recv(r, kBarrierTag, none);
    }
    for (int r = 1; r < size(); ++r) {
      send(r, kBarrierTag, none);
    }
  } else {
    send(0, kBarrierTag, none);
    recv(0, kBarrierTag, none);
  }
}

}  // namespace nodebench::mpisim
