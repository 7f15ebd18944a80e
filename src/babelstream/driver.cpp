#include "babelstream/driver.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "core/error.hpp"
#include "core/samples.hpp"
#include "trace/trace.hpp"

namespace nodebench::babelstream {

const OpResult& RunResult::best() const {
  NB_EXPECTS(!ops.empty());
  const auto it =
      std::max_element(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
        return a.bandwidthGBps.mean < b.bandwidthGBps.mean;
      });
  return *it;
}

namespace {

// No backend enters a run's noise seed, so backends measured with one
// config draw the same stream.
Xoshiro256 runStream(const DriverConfig& cfg, int run, StreamOp op) {
  return Xoshiro256(cfg.seed +
                    0x9e3779b9u * static_cast<std::uint64_t>(run) +
                    static_cast<std::uint64_t>(op));
}

double bandwidthGBps(double counted, Duration truth, double factor) {
  const Duration iter = truth * factor;
  NB_ENSURES(iter > Duration::zero());
  return counted / iter.ns();
}

// The driver's one noise loop, over every backend and op.
std::vector<RunResult> measure(std::span<Backend* const> backends,
                               std::span<const StreamOp> ops,
                               const DriverConfig& cfg) {
  NB_EXPECTS(!backends.empty());
  NB_EXPECTS(cfg.binaryRuns > 0);
  NB_EXPECTS(cfg.arrayBytes.count() > 0);
  const std::size_t n = backends.size();
  const std::size_t nOps = ops.size();

  // Pass 1: truths. A deterministic backend's model is evaluated once per
  // op. Under tracing every evaluation records cache/kernel events, so it
  // is evaluated once per run instead, in (backend, op, run) order: the
  // order the trace pins. Other backends (nullopt) measure afresh in every
  // run of pass 2. Backends whose cvs have the same bits share each run's
  // factor; the first of them (`drawer`) draws it.
  const int evaluations = trace::current() != nullptr ? cfg.binaryRuns : 1;
  std::vector<std::optional<Duration>> truths(n * nOps);
  std::vector<NoiseModel> noise;
  std::vector<std::size_t> drawer(n);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t k = 0; k < nOps; ++k) {
      for (int e = 0; e < evaluations && backends[b]->deterministicTruth();
           ++e) {
        truths[b * nOps + k] =
            backends[b]->iterationTime(ops[k], cfg.arrayBytes);
      }
    }
    const double cv = noise.emplace_back(backends[b]->noiseCv()).cv();
    drawer[b] = static_cast<std::size_t>(
        std::find_if(noise.begin(), noise.end(),
                     [&](const NoiseModel& other) {
                       return std::bit_cast<std::uint64_t>(other.cv()) ==
                              std::bit_cast<std::uint64_t>(cv);
                     }) -
        noise.begin());
  }

  // Pass 2: noise. Every accumulator still receives its values in run
  // order.
  std::vector<Welford> acc(n * nOps);
  std::vector<double> factor(n);
  for (std::size_t k = 0; k < nOps; ++k) {
    const double counted = countedBytes(ops[k], cfg.arrayBytes).asDouble();
    for (int run = 0; run < cfg.binaryRuns; ++run) {
      for (std::size_t b = 0; b < n; ++b) {
        if (drawer[b] == b) {
          Xoshiro256 rng = runStream(cfg, run, ops[k]);
          factor[b] = noise[b].sampleFactor(rng);
        }
        const std::optional<Duration>& truth = truths[b * nOps + k];
        const double bw = bandwidthGBps(
            counted,
            truth ? *truth : backends[b]->iterationTime(ops[k], cfg.arrayBytes),
            factor[drawer[b]]);
        acc[b * nOps + k].add(bw);
        if (n == 1) {
          // Channel per STREAM op so a caller can take the winning
          // kernel's samples ("Dot", "Triad", ...).
          recordSample(streamOpName(ops[k]), bw);
        }
      }
    }
  }

  std::vector<RunResult> out(n);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t k = 0; k < nOps; ++k) {
      out[b].ops.push_back(
          OpResult{ops[k], cfg.arrayBytes, acc[b * nOps + k].summary(),
                   truths[b * nOps + k].value_or(Duration::zero())});
    }
  }
  return out;
}

}  // namespace

RunResult run(Backend& backend, const DriverConfig& config) {
  Backend* const one = &backend;
  return std::move(measure({&one, 1}, kAllOps, config).front());
}

std::vector<RunResult> run(std::span<Backend* const> backends,
                           const DriverConfig& config) {
  return measure(backends, kAllOps, config);
}

OpResult measureOne(Backend& backend, StreamOp op,
                    const DriverConfig& config) {
  Backend* const one = &backend;
  return measure({&one, 1}, {&op, 1}, config).front().ops.front();
}

std::vector<double> replaySamples(const Backend& backend,
                                  const OpResult& result,
                                  const DriverConfig& config) {
  NB_EXPECTS(backend.deterministicTruth());
  const NoiseModel noise(backend.noiseCv());
  const double counted = countedBytes(result.op, config.arrayBytes).asDouble();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(config.binaryRuns));
  for (int run = 0; run < config.binaryRuns; ++run) {
    Xoshiro256 rng = runStream(config, run, result.op);
    out.push_back(
        bandwidthGBps(counted, result.truth, noise.sampleFactor(rng)));
  }
  return out;
}

}  // namespace nodebench::babelstream
