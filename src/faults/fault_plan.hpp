#pragma once
/// \file fault_plan.hpp
/// \brief Seeded, deterministic fault injection for the simulated systems.
///
/// A `FaultPlan` is a list of perturbations applied to the otherwise
/// fair-weather simulator: link failures and degradations (topology), OS
/// noise on host timing (memory + MPI noise models), inter-node packet
/// loss and NIC brownouts (network parameters), GPU downclock/ECC-stall
/// episodes (device parameters), and fully flaky measurement cells (the
/// harness retry path). All randomness derives from the plan seed plus
/// stable identities (machine, cell, attempt, message sequence) through
/// `core/rng` streams, so a given plan produces byte-identical results at
/// any `--jobs` value — the same determinism contract the fault-free
/// harness already honours.
///
/// Plans are loaded from JSON:
/// ```json
/// {
///   "seed": 42,
///   "faults": [
///     {"type": "link-kill", "machine": "Perlmutter", "link": "host-gpu0"},
///     {"type": "packet-loss", "rate": 0.05},
///     {"type": "os-noise", "machine": "Eagle", "cv_factor": 3.0}
///   ]
/// }
/// ```
/// `machine` defaults to "all"; link selectors are "host-gpu<N>",
/// "gpu<A>-gpu<B>", "socket<A>-socket<B>" or "all".

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/units.hpp"
#include "machines/machine.hpp"
#include "mpisim/transport.hpp"

namespace nodebench {
class JsonValue;
}

namespace nodebench::faults {

enum class FaultType {
  LinkKill,      ///< Matching node links go down (routes re-resolve or fail).
  LinkDegrade,   ///< Matching links lose bandwidth / gain latency.
  OsNoise,       ///< Host timing jitter: cv scale + software-overhead slowdown.
  PacketLoss,    ///< Inter-node Bernoulli message loss (retransmitted).
  NicBrownout,   ///< Injection-bandwidth derate + NIC latency adder.
  GpuDownclock,  ///< HBM bandwidth derate + kernel-path slowdown.
  GpuEccStall,   ///< ECC scrub episodes: latency added to the command path.
  FlakyCell,     ///< Measurement attempts fail outright with `rate`.
};

[[nodiscard]] std::string_view faultTypeName(FaultType t);

/// One perturbation. Fields irrelevant to a type keep their inert
/// defaults; `applies` fields select the blast radius.
struct FaultSpec {
  FaultType type = FaultType::OsNoise;
  std::string machine = "all";  ///< Registry name (case-insensitive) or "all".
  std::string link = "all";     ///< Link selector (Link* types only).
  double bandwidthFactor = 1.0;  ///< Degrade/brownout/downclock multiplier.
  Duration addedLatency = Duration::zero();  ///< Latency adder.
  double cvFactor = 1.0;        ///< OS noise: multiplies noise-model cvs.
  double slowdown = 1.0;        ///< Software-overhead multiplier.
  double rate = 0.0;            ///< Loss / flaky-cell probability.

  [[nodiscard]] bool appliesTo(std::string_view machineName) const;
};

/// A seeded set of fault specs plus the deterministic draw streams the
/// harness consumes.
class FaultPlan {
 public:
  std::uint64_t seed = 0;
  std::vector<FaultSpec> faults;

  /// Returns a perturbed copy of `m` with every matching topology /
  /// timing / device fault applied. Machines a plan does not touch come
  /// back parameter-identical, so their measurements stay byte-identical.
  /// Note: a copy with a killed link may no longer pass
  /// machines::ensureValid — that is the point; affected measurements
  /// degrade per-cell instead.
  [[nodiscard]] machines::Machine applyToMachine(
      const machines::Machine& m) const;

  /// Applies network-level faults (packet loss, NIC brownout) for the
  /// named machine to an inter-node parameter set, including the loss
  /// stream's `faultSeed` derivation.
  void applyToNetwork(std::string_view machineName,
                      mpisim::InterNodeParams& network) const;

  /// Deterministic flaky-cell draw: whether measurement attempt number
  /// `attempt` of (machine, cell) fails under the plan's FlakyCell specs.
  /// A pure function of (seed, machine, cell, attempt).
  [[nodiscard]] bool shouldFailAttempt(std::string_view machineName,
                                       std::string_view cell,
                                       int attempt) const;

  /// True when any spec can affect the named machine (used to annotate
  /// reports; measurements always run through applyToMachine regardless).
  [[nodiscard]] bool touches(std::string_view machineName) const;

  /// Human-readable one-line-per-fault description of the plan.
  [[nodiscard]] std::string summary() const;

  /// Parses a plan from JSON text; throws Error on malformed input or
  /// out-of-range parameters (e.g. rate >= 1, bandwidth_factor <= 0).
  [[nodiscard]] static FaultPlan fromJson(std::string_view text);

  /// Builds a plan from an already-parsed JSON document — the `fromJson`
  /// back half, exposed for callers that embed a plan inside a larger
  /// document (the serve campaign request's inline "fault_plan" object).
  [[nodiscard]] static FaultPlan fromJsonValue(const JsonValue& doc);

  /// Reads and parses a plan file.
  [[nodiscard]] static FaultPlan load(const std::string& path);
};

}  // namespace nodebench::faults
