#pragma once
/// \file world.hpp
/// \brief "minimpi": a blocking point-to-point message-passing runtime on
/// the virtual-time scheduler.
///
/// Each rank runs as a virtual-time process; `send`/`recv` are blocking
/// with MPI-like matching on (source, tag). Small messages use the eager
/// protocol (the sender deposits the payload's arrival time and
/// continues); large messages use rendezvous (RTS -> CTS -> data, sender
/// blocks for the handshake). Timing constants come from the transport
/// model, so a ping-pong over this runtime *is* the paper's OSU latency
/// measurement on the simulated machine.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/units.hpp"
#include "machines/machine.hpp"
#include "mpisim/transport.hpp"
#include "sim/vt_scheduler.hpp"
#include "trace/trace.hpp"

namespace nodebench::mpisim {

class MpiWorld;

/// Handle of a pending non-blocking operation. Obtained from
/// Communicator::isend / irecv; completed by wait / waitAll.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const { return id_ >= 0; }

 private:
  friend class Communicator;
  enum class Kind { Send, Recv };
  Request(Kind kind, int peer, int tag, ByteCount size, Duration ready)
      : kind_(kind), peer_(peer), tag_(tag), size_(size), ready_(ready),
        id_(0) {}

  Kind kind_ = Kind::Send;
  int peer_ = -1;
  int tag_ = 0;
  ByteCount size_;
  /// Send: time the sender's buffer is reusable. Recv: unused (the
  /// arrival is discovered at wait time by matching the mailbox).
  Duration ready_;
  BufferSpace space_;
  int id_ = -1;
};

/// Per-rank handle, valid only inside the rank function.
class Communicator {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] Duration now() const { return proc_->now(); }

  /// Models local computation.
  void compute(Duration dt) {
    const Duration begin = now();
    proc_->advance(dt);
    emitRankEvent(trace::Category::Compute, begin, -1, 0);
  }

  /// Blocking standard-mode send of `size` bytes from `space` memory.
  void send(int dest, int tag, ByteCount size,
            BufferSpace space = BufferSpace::host());

  /// Blocking receive matching (source, tag). `size` is the receive
  /// buffer size; the matched message must not exceed it.
  void recv(int source, int tag, ByteCount size,
            BufferSpace space = BufferSpace::host());

  // --- non-blocking point-to-point (osu_bw / osu_bibw style windows) ----

  /// Posts a send and returns immediately after the software post cost.
  /// Message transfers serialize on the per-destination channel (a
  /// window of isends pipelines at the path bandwidth, the behaviour
  /// osu_bw measures). Large messages use a simplified pipelined
  /// rendezvous whose completion gates the sender at wait().
  [[nodiscard]] Request isend(int dest, int tag, ByteCount size,
                              BufferSpace space = BufferSpace::host());

  /// Posts a receive; matching happens at wait().
  [[nodiscard]] Request irecv(int source, int tag, ByteCount size,
                              BufferSpace space = BufferSpace::host());

  /// Completes one request (blocking).
  void wait(Request& request);

  /// Completes all requests in order.
  void waitAll(std::vector<Request>& requests);

  /// Combined exchange (MPI_Sendrecv): posts the send non-blocking,
  /// performs the receive, then completes the send — deadlock-free for
  /// symmetric exchange patterns of any message size.
  void sendrecv(int dest, int sendTag, ByteCount sendSize, int source,
                int recvTag, ByteCount recvSize,
                BufferSpace space = BufferSpace::host());

  /// Linear barrier through rank 0 (gather then release).
  void barrier();

 private:
  friend class MpiWorld;
  Communicator(MpiWorld& world, sim::VirtualProcess& proc, int rank)
      : world_(&world), proc_(&proc), rank_(rank) {}

  /// Records [begin, now()] as a rank-lane event into the trace buffer
  /// the world captured at construction (no-op when tracing is off).
  void emitRankEvent(trace::Category category, Duration begin, int peer,
                     std::uint64_t bytes);

  MpiWorld* world_;
  sim::VirtualProcess* proc_;
  int rank_;
};

/// Owns rank placements, mailboxes and the scheduler.
class MpiWorld {
 public:
  using RankFn = std::function<void(Communicator&)>;

  /// Precondition: at least two ranks; placements reference valid cores
  /// (and GPUs, when set) of the machine's topology. Ranks on node > 0
  /// require `network` (every node is an identical copy of the machine).
  MpiWorld(const machines::Machine& machine,
           std::vector<RankPlacement> placements,
           std::optional<InterNodeParams> network = std::nullopt);

  [[nodiscard]] int size() const {
    return static_cast<int>(placements_.size());
  }
  [[nodiscard]] const machines::Machine& machine() const { return *machine_; }

  /// Runs the same function on every rank (SPMD).
  void run(const RankFn& fn);

  /// Runs a distinct function per rank. Precondition: fns.size() == size().
  void runEach(const std::vector<RankFn>& fns);

  /// Arms the underlying scheduler's virtual-time watchdog: a run whose
  /// virtual clock exceeds `deadline` aborts with sim::TimeoutError
  /// instead of spinning (e.g. a fault-injected retransmit storm).
  void setWatchdog(Duration deadline) { scheduler_.setWatchdog(deadline); }

  /// Inter-node messages retransmitted in the last completed run (0 when
  /// the network has no packet loss). Reset at each run.
  [[nodiscard]] std::uint64_t retransmitCount() const { return retransmits_; }

  /// Pins the scheduler execution mode for subsequent runs (simulated
  /// results are mode-independent; the simcore cross-check suite runs
  /// both modes and compares). Default: VirtualTimeScheduler's default.
  void setSchedulerMode(sim::VirtualTimeScheduler::Mode m) {
    scheduler_.setMode(m);
  }

  /// Process-switch count of the last completed run (determinism
  /// diagnostics; identical across scheduler modes).
  [[nodiscard]] std::uint64_t schedulerSwitchCount() const {
    return scheduler_.switchCount();
  }

 private:
  friend class Communicator;

  enum class MsgKind { Eager, Rts, Cts, Data };

  struct Message {
    int source = -1;
    int tag = 0;
    MsgKind kind = MsgKind::Eager;
    ByteCount size;
    Duration arrival;       ///< Virtual time the payload is available.
    std::uint64_t rtsId = 0;  ///< Pairs Rts/Cts/Data of one rendezvous.
  };

  struct Mailbox {
    std::deque<Message> messages;
  };

  /// Pops the first message matching (source, tag, kind); nullopt-like
  /// behaviour via bool return. Only called by the owning (running) rank.
  bool tryMatch(int myRank, int source, int tag, MsgKind kind, Message& out);

  /// Resets the per-run mailbox/channel/sequence state shared by run()
  /// and runEach(). The assigns reuse each vector's existing capacity,
  /// so repeated runs on one world do not reallocate.
  void resetRunState();

  /// Per directed rank pair: the time the transfer channel next becomes
  /// free. Back-to-back (non-blocking) sends between a pair serialize on
  /// this channel, which is what makes windowed bandwidth tests converge
  /// to the path bandwidth instead of overlapping magically. Inter-node
  /// messages serialize on the *source node's* injection channel instead,
  /// so concurrent pairs on one node share the NIC (the congestion effect
  /// the paper's future-work section wants to measure).
  [[nodiscard]] Duration& channelFree(int src, int dst);

  /// Resolves intra- vs inter-node timing for a directed rank pair.
  [[nodiscard]] PathTiming pathBetween(int src, int dst,
                                       const BufferSpace& srcSpace,
                                       const BufferSpace& dstSpace) const;

  [[nodiscard]] bool interNode(int src, int dst) const {
    return placements_[src].node != placements_[dst].node;
  }

  /// Extra delivery delay of one data-bearing inter-node message under the
  /// network's packet-loss model: draws deterministic Bernoulli losses per
  /// transmission attempt (counter-based stream keyed by source,
  /// destination and per-pair sequence number), sums capped-exponential
  /// backoffs for each lost copy and counts them in retransmits_. Returns
  /// zero for intra-node pairs or a loss-free network; throws Error when
  /// `maxRetransmits` consecutive copies of one message are lost.
  /// `base` is the virtual time transmission attempts begin (the channel
  /// grant), anchoring the paired Loss/Retransmit trace events.
  [[nodiscard]] Duration lossDelay(int src, int dst, Duration base);

  /// Records a busy interval [start, end) of the directed channel
  /// (intra-node pair link, or the source node's NIC injection channel
  /// for inter-node pairs). Intervals per channel are disjoint by
  /// construction — each transfer starts at or after the previous
  /// channel-free time — which the trace invariant suite checks.
  void emitLinkEvent(int src, int dst, Duration start, Duration end);

  const machines::Machine* machine_;
  std::vector<RankPlacement> placements_;
  std::optional<InterNodeParams> network_;
  std::vector<Mailbox> mailboxes_;
  std::vector<Duration> channels_;  ///< size() * size(), row-major by src.
  std::vector<Duration> nodeInjection_;  ///< Per node, indexed by node id.
  std::vector<std::uint64_t> pairSeq_;  ///< Per directed pair message sequence.
  std::uint64_t retransmits_ = 0;       ///< Lost copies resent in this run.
  std::uint64_t nextRtsId_ = 1;
  /// Trace buffer captured at construction (the constructing thread is
  /// the tracing scope's thread; rank threads are not). Null when
  /// tracing is disabled — every emit site is then one pointer check.
  trace::TraceBuffer* traceSink_ = nullptr;
  sim::VirtualTimeScheduler scheduler_;
};

}  // namespace nodebench::mpisim
