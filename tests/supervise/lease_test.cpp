/// \file lease_test.cpp
/// \brief The lease state machine in virtual time: acquisition order,
/// backoff windows, poison quarantine, crash re-adoption (release), and
/// journal replay — including the refusal contract for inconsistent
/// event logs.

#include "supervise/lease.hpp"

#include <gtest/gtest.h>

#include "supervise/journal.hpp"

namespace nodebench::supervise {
namespace {

campaign::CampaignConfig demoConfig() {
  campaign::CampaignConfig cfg;
  cfg.registryHash = 0xabcdefULL;
  cfg.runs = 10;
  return cfg;
}

BackoffPolicy fastPolicy() {
  BackoffPolicy policy;
  policy.baseMs = 100;
  policy.capMs = 400;
  policy.jitterFrac = 0.0;  // exact windows for the assertions below
  return policy;
}

SupervisorEvent event(EventKind kind, std::uint32_t shard,
                      std::uint32_t attempt, std::uint64_t pid = 0,
                      std::string detail = "") {
  SupervisorEvent e;
  e.kind = kind;
  e.shard = shard;
  e.attempt = attempt;
  e.pid = pid;
  e.detail = std::move(detail);
  return e;
}

TEST(LeaseScheduler, AcquiresLowestPendingFirst) {
  LeaseScheduler sched(3, 3, fastPolicy(), demoConfig());
  EXPECT_EQ(sched.acquire(0), std::optional<std::uint32_t>(0));
  EXPECT_EQ(sched.acquire(0), std::optional<std::uint32_t>(1));
  EXPECT_EQ(sched.acquire(0), std::optional<std::uint32_t>(2));
  EXPECT_EQ(sched.acquire(0), std::nullopt) << "all leased";
  EXPECT_EQ(sched.leasedCount(), 3u);
}

TEST(LeaseScheduler, CompleteResolvesShard) {
  LeaseScheduler sched(2, 3, fastPolicy(), demoConfig());
  ASSERT_TRUE(sched.acquire(0).has_value());
  sched.complete(0);
  EXPECT_EQ(sched.lease(0).state, ShardState::Done);
  EXPECT_FALSE(sched.allResolved());
  ASSERT_TRUE(sched.acquire(0).has_value());
  sched.complete(1);
  EXPECT_TRUE(sched.allResolved());
  EXPECT_FALSE(sched.anyPoisoned());
  EXPECT_EQ(sched.doneShards(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(LeaseScheduler, FailedAttemptBacksOffDeterministically) {
  LeaseScheduler sched(1, 3, fastPolicy(), demoConfig());
  ASSERT_TRUE(sched.acquire(0).has_value());
  EXPECT_EQ(sched.fail(0, "boom", 1000), ShardState::Pending);
  EXPECT_EQ(sched.lease(0).lastIncident, "boom");
  // First retry waits base (100ms, zero jitter): not ready before.
  EXPECT_EQ(sched.acquire(1000), std::nullopt);
  EXPECT_EQ(sched.acquire(1099), std::nullopt);
  EXPECT_TRUE(sched.acquire(1100).has_value());
  // Second failure doubles the window.
  EXPECT_EQ(sched.fail(0, "boom again", 2000), ShardState::Pending);
  EXPECT_EQ(sched.acquire(2199), std::nullopt);
  EXPECT_TRUE(sched.acquire(2200).has_value());
  EXPECT_EQ(sched.lease(0).attempts, 3u);
}

TEST(LeaseScheduler, PoisonsAfterMaxAttempts) {
  LeaseScheduler sched(2, 2, fastPolicy(), demoConfig());
  ASSERT_TRUE(sched.acquire(0).has_value());
  EXPECT_EQ(sched.fail(0, "first", 0), ShardState::Pending);
  ASSERT_TRUE(sched.acquire(1000).has_value());
  EXPECT_EQ(sched.fail(0, "second", 2000), ShardState::Poisoned);
  EXPECT_TRUE(sched.anyPoisoned());
  EXPECT_EQ(sched.acquire(10000), std::optional<std::uint32_t>(1))
      << "a poisoned shard is never re-leased";

  const auto gaps = sched.quarantined();
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].shard, 0u);
  EXPECT_EQ(gaps[0].attempts, 2u);
  EXPECT_EQ(gaps[0].lastIncident, "second");
}

TEST(LeaseScheduler, ReleaseUnburnsTheAttempt) {
  // Crash re-adoption: the supervisor died, not the worker, so the
  // in-flight attempt must not count toward the poison threshold.
  LeaseScheduler sched(1, 2, fastPolicy(), demoConfig());
  ASSERT_TRUE(sched.acquire(0).has_value());
  EXPECT_EQ(sched.lease(0).attempts, 1u);
  sched.release(0);
  EXPECT_EQ(sched.lease(0).state, ShardState::Pending);
  EXPECT_EQ(sched.lease(0).attempts, 0u);
  // The shard is immediately ready (no backoff — nothing failed).
  ASSERT_TRUE(sched.acquire(0).has_value());
  EXPECT_EQ(sched.fail(0, "a", 0), ShardState::Pending)
      << "the released attempt did not count";
  ASSERT_TRUE(sched.acquire(1000).has_value());
  EXPECT_EQ(sched.fail(0, "b", 2000), ShardState::Poisoned);
}

TEST(LeaseScheduler, NextPendingReadyMsReportsEarliestWindow) {
  LeaseScheduler sched(2, 3, fastPolicy(), demoConfig());
  ASSERT_TRUE(sched.acquire(0).has_value());
  ASSERT_TRUE(sched.acquire(0).has_value());
  EXPECT_EQ(sched.nextPendingReadyMs(), std::nullopt);
  (void)sched.fail(0, "x", 1000);
  (void)sched.fail(1, "y", 5000);
  ASSERT_TRUE(sched.nextPendingReadyMs().has_value());
  EXPECT_EQ(*sched.nextPendingReadyMs(), 1100);
}

TEST(LeaseScheduler, ReplayRebuildsState) {
  LeaseScheduler sched(3, 2, fastPolicy(), demoConfig());
  const std::vector<SupervisorEvent> events = {
      event(EventKind::AttemptStarted, 0, 1, 101),
      event(EventKind::AttemptStarted, 1, 1, 102),
      event(EventKind::ShardDone, 0, 1),
      event(EventKind::AttemptFailed, 1, 1, 0, "oom"),
      event(EventKind::AttemptStarted, 2, 1, 103),
      event(EventKind::AttemptFailed, 2, 1, 0, "crash"),
      event(EventKind::AttemptStarted, 2, 2, 104),
      event(EventKind::AttemptFailed, 2, 2, 0, "crash again"),
      event(EventKind::ShardPoisoned, 2, 2, 0, "crash again"),
      event(EventKind::AttemptStarted, 1, 2, 105),
  };
  sched.replay(events, 0);
  EXPECT_EQ(sched.lease(0).state, ShardState::Done);
  EXPECT_EQ(sched.lease(1).state, ShardState::Leased);
  EXPECT_EQ(sched.lease(1).pid, 105u);
  EXPECT_EQ(sched.lease(1).attempts, 2u);
  EXPECT_EQ(sched.lease(2).state, ShardState::Poisoned);
  EXPECT_EQ(sched.lease(2).lastIncident, "crash again");
}

TEST(LeaseScheduler, ReplayTreatsARestartedAttemptAsReleaseAndRelaunch) {
  // A resumed supervisor releases an in-flight lease without journaling
  // the release, then relaunches the same attempt: a supervisor killed
  // twice leaves AttemptStarted twice (or more) for one attempt. Replay
  // must accept it, leased to the newest worker, without burning an
  // attempt, so a third supervisor can still resume.
  LeaseScheduler sched(2, 2, fastPolicy(), demoConfig());
  sched.replay({event(EventKind::AttemptStarted, 0, 1, 101),
                event(EventKind::AttemptStarted, 1, 1, 102),
                event(EventKind::AttemptStarted, 0, 1, 201),
                event(EventKind::AttemptStarted, 1, 1, 202),
                event(EventKind::ShardDone, 1, 1),
                event(EventKind::AttemptStarted, 0, 1, 301)},
               0);
  EXPECT_EQ(sched.lease(0).state, ShardState::Leased);
  EXPECT_EQ(sched.lease(0).attempts, 1u);
  EXPECT_EQ(sched.lease(0).pid, 301u);
  EXPECT_EQ(sched.lease(1).state, ShardState::Done);
  // The resumed supervisor releases it again and relaunches attempt 1.
  sched.release(0);
  EXPECT_EQ(sched.acquire(0), std::optional<std::uint32_t>(0));
  EXPECT_EQ(sched.lease(0).attempts, 1u);

  // A restart of a shard that is done is still refused.
  LeaseScheduler done(1, 2, fastPolicy(), demoConfig());
  EXPECT_THROW(done.replay({event(EventKind::AttemptStarted, 0, 1, 1),
                            event(EventKind::ShardDone, 0, 1),
                            event(EventKind::AttemptStarted, 0, 1, 2)},
                           0),
               SupervisorJournalError);
}

TEST(LeaseScheduler, ReplayRefusesInconsistentLogs) {
  const auto cfg = demoConfig();
  {
    LeaseScheduler sched(2, 2, fastPolicy(), cfg);
    EXPECT_THROW(
        sched.replay({event(EventKind::AttemptStarted, 7, 1, 1)}, 0),
        SupervisorJournalError)
        << "out-of-range shard";
  }
  {
    LeaseScheduler sched(2, 2, fastPolicy(), cfg);
    EXPECT_THROW(sched.replay({event(EventKind::ShardDone, 0, 1)}, 0),
                 SupervisorJournalError)
        << "done without a started attempt";
  }
  {
    LeaseScheduler sched(2, 2, fastPolicy(), cfg);
    EXPECT_THROW(
        sched.replay({event(EventKind::AttemptFailed, 0, 1, 0, "x")}, 0),
        SupervisorJournalError)
        << "failure without a started attempt";
  }
  {
    LeaseScheduler sched(2, 2, fastPolicy(), cfg);
    EXPECT_THROW(
        sched.replay({event(EventKind::AttemptStarted, 0, 1, 1),
                      event(EventKind::AttemptStarted, 0, 2, 2)},
                     0),
        SupervisorJournalError)
        << "double lease";
  }
  {
    LeaseScheduler sched(2, 2, fastPolicy(), cfg);
    EXPECT_THROW(
        sched.replay({event(EventKind::AttemptStarted, 0, 1, 1),
                      event(EventKind::AttemptFailed, 0, 1, 0, "x"),
                      event(EventKind::ShardPoisoned, 0, 1, 0, "x")},
                     0),
        SupervisorJournalError)
        << "poisoned before attempts were exhausted";
  }
}

}  // namespace
}  // namespace nodebench::supervise
