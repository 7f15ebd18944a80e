#pragma once
/// \file analytic.hpp
/// \brief Closed-form composition of the two-rank transfer kernels that
/// dominate the benchmark suite (DESIGN.md §12).
///
/// When no fault plan, channel contention, or tracing session can observe
/// the event-by-event interleaving, a two-rank exchange is a straight-line
/// recurrence over four pieces of state: each rank's virtual clock and each
/// direction's channel-free time. This module evaluates those recurrences
/// directly — replicating `Communicator::send/recv/isend/wait` *operation
/// by operation*, in the same floating-point order — so the composed result
/// is bit-identical to running the virtual-time scheduler, at a tiny
/// fraction of the cost (no fibers, no mailboxes, no heap traffic).
///
/// Eligibility (enforced by callers via `fastPathEligible()` plus their own
/// kernel-specific checks; the `simcore` conformance suite locks in the
/// bit-identity claim):
///  - exactly two ranks, symmetric buffer spaces (host/host or each rank's
///    own bound device — the only shapes the paper's benchmarks use);
///  - no packet-loss fault plan (`lossDelay` would consume per-pair RNG
///    sequence numbers and inject backoffs);
///  - no active tracing session (`trace::current() == nullptr`): the event
///    path emits per-op Send/Recv/LinkOccupancy events that the closed form
///    intentionally skips;
///  - no virtual-time watchdog (a `TimeoutError` can only be raised by the
///    scheduler the fast path bypasses).
///
/// The knob: `NODEBENCH_SIMCORE_FASTPATH=0` disables the fast path globally
/// (read once); `setFastPathEnabled()` overrides programmatically (used by
/// the conformance tests to force both paths and compare).

#include <optional>

#include "core/units.hpp"
#include "machines/machine.hpp"
#include "mpisim/transport.hpp"

namespace nodebench::mpisim::analytic {

/// Whether the closed-form fast path is enabled at all (env knob and/or
/// programmatic override). Does not consider per-call eligibility.
[[nodiscard]] bool fastPathEnabled();

/// Programmatic override of the env default (thread-safe, process-wide).
/// Conformance tests and benchmarks use this to pin a specific path.
void setFastPathEnabled(bool on);

/// True when a closed-form composition may replace an event-by-event run
/// right now: enabled, and no tracing session is active on this thread.
/// Callers add their own kernel checks (fault plan, contention, watchdog).
[[nodiscard]] bool fastPathEligible();

/// Elapsed virtual time on rank A for `iterations` blocking ping-pong
/// round trips of `messageSize` (the `osu_latency` truth kernel, exactly
/// as `LatencyBenchmark::truthOneWay` programs it). Handles both the eager
/// and rendezvous protocol regimes. `network` must be set when the two
/// placements live on different nodes.
[[nodiscard]] Duration pingPongElapsed(
    const machines::Machine& machine, const RankPlacement& rankA,
    const RankPlacement& rankB, const BufferSpace& spaceA,
    const BufferSpace& spaceB, ByteCount messageSize, int iterations,
    const std::optional<InterNodeParams>& network = std::nullopt);

/// Rank 0's measured elapsed times for the inter-node kernel in
/// `netsim::measureInterNode` (barrier; latency ping-pong; barrier;
/// windowed 64 KiB stream with 4-byte acks).
struct InterNodePairElapsed {
  Duration latencyElapsed;  ///< Phase-1 ping-pong elapsed on rank 0.
  Duration streamElapsed;   ///< Phase-2 windowed-stream elapsed on rank 0.
};
[[nodiscard]] InterNodePairElapsed interNodePairElapsed(
    const machines::Machine& machine, const InterNodeParams& network,
    bool deviceBuffers, ByteCount messageSize, int iterations);

}  // namespace nodebench::mpisim::analytic
