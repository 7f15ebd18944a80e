#include "supervise/lease.hpp"

#include <utility>

#include "core/error.hpp"

namespace nodebench::supervise {

LeaseScheduler::LeaseScheduler(std::uint32_t shards,
                               std::uint32_t maxAttempts, BackoffPolicy policy,
                               campaign::CampaignConfig config)
    : maxAttempts_(maxAttempts),
      policy_(policy),
      config_(std::move(config)),
      leases_(shards) {
  NB_EXPECTS(shards >= 1);
  NB_EXPECTS(maxAttempts >= 1);
}

std::optional<std::uint32_t> LeaseScheduler::acquire(std::int64_t nowMs) {
  for (std::uint32_t i = 0; i < leases_.size(); ++i) {
    Lease& lease = leases_[i];
    if (lease.state == ShardState::Pending && lease.notBeforeMs <= nowMs) {
      lease.state = ShardState::Leased;
      lease.pid = 0;
      ++lease.attempts;
      return i;
    }
  }
  return std::nullopt;
}

void LeaseScheduler::bind(std::uint32_t shard, std::uint64_t pid) {
  NB_EXPECTS(shard < leases_.size());
  NB_EXPECTS(leases_[shard].state == ShardState::Leased);
  leases_[shard].pid = pid;
}

void LeaseScheduler::complete(std::uint32_t shard) {
  NB_EXPECTS(shard < leases_.size());
  NB_EXPECTS(leases_[shard].state == ShardState::Leased);
  leases_[shard].state = ShardState::Done;
  leases_[shard].pid = 0;
}

ShardState LeaseScheduler::fail(std::uint32_t shard,
                                const std::string& incident,
                                std::int64_t nowMs) {
  NB_EXPECTS(shard < leases_.size());
  Lease& lease = leases_[shard];
  NB_EXPECTS(lease.state == ShardState::Leased);
  lease.pid = 0;
  lease.lastIncident = incident;
  if (lease.attempts >= maxAttempts_) {
    lease.state = ShardState::Poisoned;
    return lease.state;
  }
  lease.state = ShardState::Pending;
  lease.notBeforeMs =
      nowMs + backoffDelayMs(policy_, retrySeed(config_, shard, lease.attempts),
                             lease.attempts);
  return lease.state;
}

void LeaseScheduler::release(std::uint32_t shard) {
  NB_EXPECTS(shard < leases_.size());
  Lease& lease = leases_[shard];
  NB_EXPECTS(lease.state == ShardState::Leased);
  NB_EXPECTS(lease.attempts >= 1);
  lease.state = ShardState::Pending;
  lease.pid = 0;
  --lease.attempts;  // the attempt was never accounted: un-burn it
}

void LeaseScheduler::replay(const std::vector<SupervisorEvent>& events,
                            std::int64_t nowMs) {
  // The journal passed its CRCs, but the event *sequence* is still
  // untrusted (a forged or mis-copied file): violations get a clean
  // refusal, not a precondition trap.
  const auto refuse = [](std::uint32_t shard, const char* why) {
    throw SupervisorJournalError(
        "cannot replay supervisor journal: shard " + std::to_string(shard) +
        " " + why + " — the event log is inconsistent");
  };
  for (const SupervisorEvent& event : events) {
    if (event.shard >= leases_.size()) {
      refuse(event.shard, "is out of range");
    }
    Lease& lease = leases_[event.shard];
    switch (event.kind) {
      case EventKind::AttemptStarted:
        // Mirrors acquire() + bind(): the journal records the decision
        // the scheduler made, so replay re-applies it directly. A resumed
        // supervisor releases an in-flight lease without journaling the
        // release and relaunches the same attempt, so the same attempt
        // number started again on a leased shard is that release plus
        // relaunch: the lease moves to the new pid.
        if (lease.state == ShardState::Leased &&
            event.attempt == lease.attempts) {
          lease.pid = event.pid;
          break;
        }
        if (lease.state != ShardState::Pending) {
          refuse(event.shard, "starts an attempt while not pending");
        }
        lease.state = ShardState::Leased;
        lease.attempts = event.attempt;
        lease.pid = event.pid;
        break;
      case EventKind::AttemptFailed:
        if (lease.state != ShardState::Leased) {
          refuse(event.shard, "fails an attempt that never started");
        }
        (void)fail(event.shard, event.detail, nowMs);
        break;
      case EventKind::ShardDone:
        if (lease.state != ShardState::Leased) {
          refuse(event.shard, "completes an attempt that never started");
        }
        complete(event.shard);
        break;
      case EventKind::ShardPoisoned:
        // fail() already poisoned the lease when the threshold was hit;
        // the explicit event is the durable record for merge tooling.
        if (lease.state != ShardState::Poisoned) {
          refuse(event.shard,
                 "is declared poisoned before its attempts were exhausted");
        }
        break;
    }
  }
}

const Lease& LeaseScheduler::lease(std::uint32_t shard) const {
  NB_EXPECTS(shard < leases_.size());
  return leases_[shard];
}

bool LeaseScheduler::allResolved() const {
  for (const Lease& lease : leases_) {
    if (lease.state != ShardState::Done &&
        lease.state != ShardState::Poisoned) {
      return false;
    }
  }
  return true;
}

bool LeaseScheduler::anyPoisoned() const {
  for (const Lease& lease : leases_) {
    if (lease.state == ShardState::Poisoned) {
      return true;
    }
  }
  return false;
}

std::size_t LeaseScheduler::leasedCount() const {
  std::size_t n = 0;
  for (const Lease& lease : leases_) {
    if (lease.state == ShardState::Leased) {
      ++n;
    }
  }
  return n;
}

std::vector<campaign::ShardGap> LeaseScheduler::quarantined() const {
  std::vector<campaign::ShardGap> gaps;
  for (std::uint32_t i = 0; i < leases_.size(); ++i) {
    if (leases_[i].state == ShardState::Poisoned) {
      campaign::ShardGap gap;
      gap.shard = i;
      gap.attempts = leases_[i].attempts;
      gap.lastIncident = leases_[i].lastIncident;
      gaps.push_back(std::move(gap));
    }
  }
  return gaps;
}

std::vector<std::uint32_t> LeaseScheduler::doneShards() const {
  std::vector<std::uint32_t> done;
  for (std::uint32_t i = 0; i < leases_.size(); ++i) {
    if (leases_[i].state == ShardState::Done) {
      done.push_back(i);
    }
  }
  return done;
}

std::optional<std::int64_t> LeaseScheduler::nextPendingReadyMs() const {
  std::optional<std::int64_t> earliest;
  for (const Lease& lease : leases_) {
    if (lease.state == ShardState::Pending &&
        (!earliest || lease.notBeforeMs < *earliest)) {
      earliest = lease.notBeforeMs;
    }
  }
  return earliest;
}

}  // namespace nodebench::supervise
