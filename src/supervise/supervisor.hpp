#pragma once
/// \file supervisor.hpp
/// \brief The one campaign launcher, behind `nodebench shard` and
/// `nodebench supervise`.
///
/// Shard leases live in a bounded slot pool; workers are launched as
/// slots free up, heartbeat through the file contract (heartbeat.hpp)
/// and journal their slice as `table --shard i/N` runs. The event loop
/// blocks in poll(2) on the workers' pidfds until one exits, a signal
/// lands or the next deadline falls due. The launcher:
///
///  - expires a lease when the worker dies, misses heartbeats, or
///    exceeds the attempt wall-clock budget, and reassigns the shard
///    with deterministic capped-exponential backoff (backoff.hpp) — the
///    replacement *resumes* the dead worker's crash-safe journal, never
///    re-measures finished cells;
///  - quarantines a shard as poisoned after `maxAttempts` failed
///    attempts and degrades to a partial merge: merged journal/store of
///    the healthy shards plus a gap manifest naming every missing shard
///    and cell, exiting with a distinct code (44) — never a silently
///    smaller table;
///  - with a supervisor journal, survives its own SIGKILL: every lease
///    transition is an fsynced event (journal.hpp) that `--resume`
///    replays; every `--resume` first kills the workers a killed
///    launcher left running (cmdline-guarded);
///  - stays byte-identical: an all-shards-healthy campaign's merged
///    journal and store `cmp` equal to a single-process `--jobs 1` run,
///    chaos or no chaos.
///
/// `shard` is this launcher with one attempt per shard and no
/// supervisor journal.
///
/// Workers are local processes today, but every contract they depend on
/// (journals, stores, heartbeats, leases) is a file, so the protocol is
/// host-agnostic by construction.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "core/cancel.hpp"
#include "report/campaign_spec.hpp"
#include "stats/merge.hpp"
#include "supervise/backoff.hpp"

namespace nodebench::supervise {

struct SuperviseOptions {
  /// The campaign the workers measure: selector, `shards`, the journal
  /// and store BASEs, runs, jobs, fault plan, resume, the workers' beat
  /// interval and the chaos hooks.
  report::CampaignSpec campaign;
  /// Concurrent worker slots (the bounded lease pool); 0 = one slot per
  /// shard (full fan-out, the shard driver's behaviour).
  std::uint32_t workers = 0;
  std::string supervisorJournalPath;  ///< "" = no supervisor journal
  std::uint32_t maxAttempts = 3;
  BackoffPolicy backoff;
  std::uint32_t heartbeatTimeoutMs = 5000;
  std::uint32_t attemptTimeoutMs = 0;  ///< 0 = no wall-clock straggler cap
  /// Merged journal, store and gap manifest; an empty journal path skips
  /// the merge.
  stats::MergeOutputs merge;
  /// Set by SIGINT/SIGTERM; the event loop checks it on every wake-up and
  /// drains (SIGTERM to workers, exit 43). nullptr = no signal handling.
  const CancelToken* stopFlag = nullptr;
};

/// Runs the campaign to completion (or interruption) and returns its
/// exit code: 0, kInterruptedExitCode, or stats::kPartialCampaignExitCode
/// when shards were quarantined. Throws Error on configuration problems
/// — among them, without `--resume`, a shard journal, shard store or
/// merge output that already exists, refused before the supervisor
/// journal is created or any worker forks. Worker failures are not
/// exceptions, they are the job.
[[nodiscard]] int runSupervise(const SuperviseOptions& options);

}  // namespace nodebench::supervise
