#pragma once
/// \file driver.hpp
/// \brief BabelStream measurement driver: repeats the benchmark binary
/// the paper's 100 times, aggregates mean ± sigma per op, and applies the
/// paper's reporting rule (best op at the largest vector size).

#include <span>
#include <vector>

#include "babelstream/backend.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"

namespace nodebench::babelstream {

struct DriverConfig {
  ByteCount arrayBytes = ByteCount::mib(128);
  /// Repeats inside one binary execution (BabelStream default).
  int innerRepeats = 100;
  /// Benchmark binary executions aggregated into mean ± sigma (paper §4).
  int binaryRuns = 100;
  std::uint64_t seed = 0x6a6e5d2b01u;
};

/// Aggregated result of one op at one size.
struct OpResult {
  StreamOp op = StreamOp::Copy;
  ByteCount arrayBytes;
  Summary bandwidthGBps;  ///< Across binary runs.
  /// Noiseless iteration time behind every run when the backend's truth
  /// is deterministic; zero when each run was measured afresh.
  Duration truth;
};

/// Result of one full benchmark campaign (all five ops).
struct RunResult {
  std::vector<OpResult> ops;

  /// The paper's reporting rule: the op with the highest mean bandwidth.
  [[nodiscard]] const OpResult& best() const;
};

/// Runs all five ops. Each binary run samples one multiplicative noise
/// factor (run-to-run system state: page placement, frequency, ...) and
/// reports countedBytes / iterationTime; within-run repeats of a
/// noiseless simulated backend are identical, so the run factor carries
/// the entire observed variance, matching how the paper's sigma was
/// computed (across binaries, not within). Each run's bandwidth is also
/// recorded on the active sample capture (core/samples.hpp), one channel
/// per op name.
[[nodiscard]] RunResult run(Backend& backend, const DriverConfig& config);

/// `run` over several backends with one config, one RunResult per backend
/// in order, each bit for bit what `run` returns for that backend alone.
/// A run's noise stream is seeded from (config.seed, run, op) only, so
/// the factor is drawn once per (op, run, distinct noise cv) and shared by
/// every backend with that cv. With more than one backend it records no
/// samples, since the channels could not tell the backends apart
/// (`replaySamples` recovers one op's draws).
[[nodiscard]] std::vector<RunResult> run(std::span<Backend* const> backends,
                                         const DriverConfig& config);

/// One op at exactly config.arrayBytes, for families that pick their own
/// size grid (the memlab working-set sweep); records samples like `run`.
/// Noise streams are seeded from (config.seed, run, op) only, so callers
/// vary config.seed per size to decorrelate grid points.
[[nodiscard]] OpResult measureOne(Backend& backend, StreamOp op,
                                  const DriverConfig& config);

/// The per-run bandwidths behind `result` (measured on `backend` with
/// `config`), in run order: the values its Summary accumulated, drawn
/// again from `result.truth` without evaluating the backend. Precondition:
/// the backend's truth is deterministic.
[[nodiscard]] std::vector<double> replaySamples(const Backend& backend,
                                                const OpResult& result,
                                                const DriverConfig& config);

}  // namespace nodebench::babelstream
