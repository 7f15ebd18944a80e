#pragma once
/// \file network.hpp
/// \brief Inter-node network substrate — the paper's first future-work
/// item ("extend this work to include inter-node measurements ...
/// network contention, node-vs-network capability (e.g. injection
/// bandwidth), network topology").
///
/// Every studied system gets a representative interconnect parameter set
/// (Slingshot-11, EDR InfiniBand, Aries, Omni-Path), and
/// `measureInterNode` mirrors the OSU methodology across nodes:
/// point-to-point latency and windowed bandwidth between two nodes.

#include <optional>

#include "core/stats.hpp"
#include "machines/machine.hpp"
#include "mpisim/world.hpp"

namespace nodebench::netsim {

/// Representative interconnect of a machine, keyed off its real network
/// (values from public system documentation; see network.cpp).
[[nodiscard]] mpisim::InterNodeParams networkFor(const machines::Machine& m);

struct InterNodeConfig {
  ByteCount messageSize = ByteCount::bytes(8);
  int iterations = 200;
  int binaryRuns = 100;
  /// Device-resident buffers (GPU machines only).
  bool deviceBuffers = false;
  std::uint64_t seed = 0x4e7e0001u;
  /// Overrides `networkFor(m)` — the faults library supplies a perturbed
  /// copy (packet loss, NIC brownout) through this.
  std::optional<mpisim::InterNodeParams> network;
  /// Virtual-time watchdog for the simulated run; unset leaves the
  /// scheduler's default (disabled).
  std::optional<Duration> watchdog;
};

struct InterNodeResult {
  ByteCount messageSize;
  Summary latencyUs;            ///< One-way ping-pong latency.
  Summary perPairBandwidthGBps; ///< Windowed bandwidth of the pair.
  std::uint64_t retransmits = 0;  ///< Lost-and-resent inter-node messages.
};

/// Ping-pong latency, then a windowed 64 KiB stream, between rank 0 on
/// node 0 and rank 1 on node 1 (core 0 of each, plus GPU 0 in device
/// mode).
[[nodiscard]] InterNodeResult measureInterNode(const machines::Machine& m,
                                               const InterNodeConfig& cfg);

}  // namespace nodebench::netsim
