#pragma once
/// \file lease.hpp
/// \brief The supervisor's lease state machine, in virtual milliseconds.
///
/// Each shard walks Pending -> Leased -> {Done | Pending(backoff) |
/// Poisoned}. The scheduler is deliberately pure — time is a number the
/// caller passes in — so every transition (backoff windows, the poison
/// threshold, crash re-adoption) is unit-testable without sleeping, the
/// same discipline as the simulator's virtual clock. The event loop in
/// supervisor.cpp owns the real clock and the processes; this class owns
/// the *decisions*.
///
/// Crash re-adoption semantics: `release()` returns a Leased shard to
/// Pending *without* recording a failure. It models "the supervisor
/// died, not the worker" — an attempt that was in flight when the
/// supervisor was killed is unaccounted, so the resumed supervisor
/// re-runs it (from the worker's crash-safe journal) rather than
/// counting it toward the poison threshold.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "supervise/backoff.hpp"
#include "supervise/journal.hpp"

namespace nodebench::supervise {

enum class ShardState : std::uint8_t { Pending, Leased, Done, Poisoned };

/// One shard's lease bookkeeping.
struct Lease {
  ShardState state = ShardState::Pending;
  std::uint32_t attempts = 0;   ///< attempts started so far
  std::int64_t notBeforeMs = 0; ///< earliest next acquire (backoff window)
  std::uint64_t pid = 0;        ///< current worker, valid while Leased
  std::string lastIncident;     ///< most recent failure's incident text
};

class LeaseScheduler {
 public:
  /// `config` seeds the deterministic backoff jitter (see backoff.hpp).
  LeaseScheduler(std::uint32_t shards, std::uint32_t maxAttempts,
                 BackoffPolicy policy, campaign::CampaignConfig config);

  /// Leases the lowest-indexed Pending shard whose backoff window has
  /// passed, bumping its attempt counter. nullopt when nothing is ready
  /// (all busy/resolved, or every pending shard is still backing off).
  [[nodiscard]] std::optional<std::uint32_t> acquire(std::int64_t nowMs);

  /// Records the leased worker's pid (journalled for stale-worker
  /// detection on resume).
  void bind(std::uint32_t shard, std::uint64_t pid);

  /// Leased -> Done.
  void complete(std::uint32_t shard);

  /// Leased -> Pending with a deterministic backoff window, or ->
  /// Poisoned once `maxAttempts` attempts have failed. Returns the new
  /// state so the caller knows whether to journal a poison event.
  ShardState fail(std::uint32_t shard, const std::string& incident,
                  std::int64_t nowMs);

  /// Leased -> Pending, attempt counter rolled back: the supervisor (not
  /// the worker) is what failed, so the in-flight attempt is un-burned.
  void release(std::uint32_t shard);

  /// Rebuilds lease state from a supervisor journal's event log. After
  /// replay, shards whose last event is AttemptStarted are Leased to
  /// their recorded pid — the caller kills/adopts those workers and
  /// calls release(). An AttemptStarted for a shard already leased under
  /// the same attempt number is such a release (never journaled) plus
  /// its relaunch; every other out-of-order event is refused.
  void replay(const std::vector<SupervisorEvent>& events, std::int64_t nowMs);

  [[nodiscard]] const Lease& lease(std::uint32_t shard) const;
  [[nodiscard]] std::uint32_t shardCount() const {
    return static_cast<std::uint32_t>(leases_.size());
  }

  /// True when every shard is Done or Poisoned.
  [[nodiscard]] bool allResolved() const;
  [[nodiscard]] bool anyPoisoned() const;
  [[nodiscard]] std::size_t leasedCount() const;

  /// Poisoned shards as merge-ready gap records, sorted by index.
  [[nodiscard]] std::vector<campaign::ShardGap> quarantined() const;

  /// Done shards, sorted by index.
  [[nodiscard]] std::vector<std::uint32_t> doneShards() const;

  /// The earliest notBefore among Pending shards (what the event loop
  /// may sleep toward); nullopt when no shard is Pending.
  [[nodiscard]] std::optional<std::int64_t> nextPendingReadyMs() const;

 private:
  std::uint32_t maxAttempts_;
  BackoffPolicy policy_;
  campaign::CampaignConfig config_;
  std::vector<Lease> leases_;
};

}  // namespace nodebench::supervise
