#pragma once
/// \file latency.hpp
/// \brief OSU Micro-Benchmarks style point-to-point latency test
/// (`osu_latency`) over the simulated message-passing runtime.
///
/// Methodology mirrors OSU 7.1.1 and the paper's harness:
///  - blocking ping-pong between two ranks, reported latency = round trip
///    time / 2, averaged over the in-binary iteration count;
///  - 1000 iterations for small messages, 100 for large ones (paper §4);
///  - the whole binary is executed 100 times; tables report mean ± sigma
///    across binaries.
///
/// The in-binary ping-pong runs through the full mpisim stack (virtual
///-time scheduler, eager/rendezvous protocols, topology routes). The
/// simulated transport is deterministic, so run-to-run variance is applied
/// as a per-binary multiplicative noise factor drawn from the machine's
/// calibrated cv — which is precisely the quantity the paper's sigma
/// column estimates.

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "machines/machine.hpp"
#include "mpisim/world.hpp"

namespace nodebench::osu {

/// Raw-sample channel (core/samples.hpp): one value per binary run of a
/// latency cell, in microseconds. Matches the trace histogram channel.
inline constexpr const char* kLatencySampleChannel = "osu.latency_us";

struct LatencyConfig {
  ByteCount messageSize = ByteCount::bytes(8);
  int warmupIterations = 10;
  /// In-binary iterations; <= 0 selects the OSU default (1000 small /
  /// 100 above largeMessageThreshold).
  int iterations = 0;
  ByteCount largeMessageThreshold = ByteCount::kib(8);
  int binaryRuns = 100;
  std::uint64_t seed = 0x05011a7e0cu;
};

struct LatencyResult {
  ByteCount messageSize;
  Summary latencyUs;  ///< One-way latency, microseconds, across binaries.
};

class LatencyBenchmark {
 public:
  /// Ping-pong between two ranks with the given placements. With
  /// `Kind::Device` buffers each rank uses its bound GPU's memory (both
  /// placements must then carry a GPU). The machine must outlive the
  /// benchmark.
  LatencyBenchmark(const machines::Machine& machine,
                   mpisim::RankPlacement rankA, mpisim::RankPlacement rankB,
                   mpisim::BufferSpace::Kind bufferKind);

  /// One table cell: mean ± sigma one-way latency at `config.messageSize`.
  ///
  /// Split into a deterministic *truth* run (the thread-spawning simulated
  /// ping-pong, memoized per (size, iterations)) and `binaryRuns` cheap
  /// noise draws seeded from the cell identity alone. Repeated measures of
  /// the same cell — e.g. the sweep's shared sizes, or a table rendered
  /// twice — reuse the truth instead of re-simulating it.
  [[nodiscard]] LatencyResult measure(const LatencyConfig& config) const;

  /// OSU-style sweep: powers of two from 1 B (plus 0 B) to `maxSize`.
  [[nodiscard]] std::vector<LatencyResult> sweep(
      ByteCount maxSize, const LatencyConfig& config) const;

  /// Noiseless single-binary average one-way latency (exposed for tests).
  [[nodiscard]] Duration truthOneWay(ByteCount messageSize,
                                     int iterations) const;

 private:
  /// truthOneWay with memoization; thread-safe (the parallel table
  /// harness measures disjoint cells, but a benchmark instance may be
  /// shared). Concurrent first queries of one key compute the truth
  /// exactly once: late arrivals block on the owner's future.
  [[nodiscard]] Duration truthCached(ByteCount messageSize,
                                     int iterations) const;

  const machines::Machine* machine_;
  mpisim::RankPlacement rankA_;
  mpisim::RankPlacement rankB_;
  mpisim::BufferSpace spaceA_;
  mpisim::BufferSpace spaceB_;

  mutable std::map<std::pair<std::uint64_t, int>,
                   std::shared_future<Duration>>
      truthMemo_;
  mutable std::mutex truthMu_;
};

}  // namespace nodebench::osu
