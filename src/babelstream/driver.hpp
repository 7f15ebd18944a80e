#pragma once
/// \file driver.hpp
/// \brief BabelStream measurement driver: repeats the benchmark binary
/// the paper's 100 times, aggregates mean ± sigma per op, and applies the
/// paper's reporting rule (best op at the largest vector size).

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
/// computed (across binaries, not within).
[[nodiscard]] RunResult run(Backend& backend, const DriverConfig& config);

/// Bandwidth of one op across a size sweep (16 KiB .. arrayBytes by
/// powers of two), one Summary per size.
[[nodiscard]] std::vector<OpResult> sizeSweep(Backend& backend, StreamOp op,
                                              const DriverConfig& config);

/// One op at exactly config.arrayBytes — the building block `run` and
/// `sizeSweep` iterate, exposed for families that pick their own size
/// grid (the memlab working-set sweep). Noise streams are seeded from
/// (config.seed, run, op) only, so callers vary config.seed per size to
/// decorrelate grid points.
[[nodiscard]] OpResult measureOne(Backend& backend, StreamOp op,
                                  const DriverConfig& config);

}  // namespace nodebench::babelstream
