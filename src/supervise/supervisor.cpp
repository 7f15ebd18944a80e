#include "supervise/supervisor.hpp"

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "campaign/io.hpp"
#include "campaign/journal.hpp"
#include "core/cancel.hpp"
#include "core/deadline.hpp"
#include "core/error.hpp"
#include "faults/fault_plan.hpp"
#include "report/reports.hpp"
#include "report/tables.hpp"
#include "stats/merge.hpp"
#include "supervise/heartbeat.hpp"
#include "supervise/journal.hpp"
#include "supervise/lease.hpp"

namespace nodebench::supervise {
namespace {

/// The supervisor's real clock, exposed both as lease-scheduler virtual
/// milliseconds and as DeadlineMonitor time points, with one shared
/// epoch so the two views can never drift.
class WallClock {
 public:
  WallClock() : t0_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::int64_t nowMs() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  [[nodiscard]] std::chrono::steady_clock::time_point at(
      std::int64_t ms) const {
    return t0_ + std::chrono::milliseconds(ms);
  }

  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    return std::chrono::steady_clock::now();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// One live worker process, keyed by pid in the event loop.
struct RunningWorker {
  std::uint32_t shard = 0;
  std::uint32_t attempt = 0;
  pid_t pid = -1;
  std::uint64_t lastSeq = 0;  ///< highest heartbeat sequence seen
  /// Set when the supervisor itself killed the worker (missed
  /// heartbeats, straggler timeout); becomes the incident text at reap
  /// time so the journal records *why*, not just "killed by signal 9".
  std::string pendingIncident;
};

/// True when /proc/<pid>/cmdline names `needle` as one of its
/// NUL-separated arguments — the guard against pid reuse before the
/// resume path kills what it believes is a stale worker.
bool cmdlineMentions(pid_t pid, const std::string& needle) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/cmdline",
                   std::ios::binary);
  if (!in) {
    return false;  // process already gone
  }
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  std::size_t start = 0;
  while (start < raw.size()) {
    const std::size_t end = raw.find('\0', start);
    const std::string arg =
        raw.substr(start, end == std::string::npos ? end : end - start);
    if (arg == needle) {
      return true;
    }
    if (end == std::string::npos) {
      break;
    }
    start = end + 1;
  }
  return false;
}

/// Kills a worker left over from a supervisor that died, then waits for
/// it to disappear so its journal is quiescent before a replacement
/// resumes it. Only kills a process whose cmdline names the shard
/// journal — a recycled pid belonging to someone else is left alone.
void killStaleWorker(std::uint64_t pid64, const std::string& shardJournal) {
  if (pid64 == 0 || pid64 > static_cast<std::uint64_t>(
                                std::numeric_limits<pid_t>::max())) {
    return;
  }
  const auto pid = static_cast<pid_t>(pid64);
  if (!cmdlineMentions(pid, shardJournal)) {
    return;
  }
  std::cerr << "nodebench supervise: killing stale worker pid " << pid
            << " (" << shardJournal << ")\n";
  (void)::kill(pid, SIGKILL);
  // Not our child (the parent died), so waitpid cannot reap it; poll
  // until the kernel has torn it down. Bounded: a kill that has not
  // landed after 5s means something is deeply wrong with the host.
  for (int i = 0; i < 500; ++i) {
    if (::kill(pid, 0) != 0 && errno == ESRCH) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  throw Error("stale worker pid " + std::to_string(pid) +
              " did not die within 5s of SIGKILL");
}

[[nodiscard]] bool fileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

SuperviseResult runSupervise(const SuperviseOptions& options) {
  if (options.table.empty()) {
    throw Error("supervise requires a table selector");
  }
  // Resolved before the supervisor journal exists or any worker forks:
  // a bad selector would otherwise burn every attempt of every shard.
  (void)report::selectReports(options.table);
  if (options.shards == 0) {
    throw Error("supervise requires --shards N (the shard count)");
  }
  if (options.shards > campaign::kMaxShardCount) {
    throw Error("--shards must be at most " +
                std::to_string(campaign::kMaxShardCount));
  }
  if (options.journalBase.empty()) {
    throw Error("supervise requires --journal BASE (worker journals land "
                "at BASE.shard<i>of<N>)");
  }
  if (options.maxAttempts == 0) {
    throw Error("--max-attempts must be at least 1");
  }
  if (!options.mergeStoreOut.empty() && options.storeBase.empty()) {
    throw Error("--merge-store-out requires --store BASE (the workers "
                "must write shard stores to merge)");
  }
  if (!options.mergeStoreOut.empty() && options.mergeOut.empty()) {
    throw Error("--merge-store-out requires --merge-out FILE");
  }
  if (options.heartbeatTimeoutMs <= options.heartbeatIntervalMs) {
    throw Error("--heartbeat-timeout-ms must exceed "
                "--heartbeat-interval-ms, or every healthy worker "
                "would be expired between beats");
  }

  const std::uint32_t slots =
      options.workers == 0 ? options.shards
                           : std::min(options.workers, options.shards);

  // The fingerprint the workers will stamp into their shard journals,
  // derived exactly as `table` derives it so the supervisor journal,
  // the backoff seed, and the worker artifacts all agree.
  report::TableOptions topt;
  std::optional<faults::FaultPlan> faultPlan;
  if (!options.faultsPath.empty()) {
    faultPlan = faults::FaultPlan::load(options.faultsPath);
    topt.faults = &*faultPlan;
  }
  if (options.runs != 0) {
    topt.binaryRuns = options.runs;
  }
  const campaign::CampaignConfig cfg = report::campaignConfig(topt);

  SupervisorConfig scfg;
  scfg.campaign = cfg;
  scfg.shards = options.shards;
  scfg.maxAttempts = options.maxAttempts;
  scfg.backoffBaseMs = options.backoff.baseMs;
  scfg.backoffCapMs = options.backoff.capMs;

  const std::string supJournalPath =
      options.supervisorJournalPath.empty()
          ? options.journalBase + ".supervisor"
          : options.supervisorJournalPath;

  std::unique_ptr<SupervisorJournal> journal;
  if (options.resume) {
    journal = SupervisorJournal::resume(supJournalPath, scfg);
    for (const std::string& warning : journal->warnings()) {
      std::cerr << "nodebench supervise: warning: " << warning << "\n";
    }
  } else {
    journal = SupervisorJournal::create(supJournalPath, scfg);
  }

  WallClock clock;
  LeaseScheduler sched(options.shards, options.maxAttempts, options.backoff,
                       cfg);

  // Per-shard file paths, fixed for the campaign's lifetime.
  std::vector<std::string> journalPaths(options.shards);
  std::vector<std::string> storePaths(options.shards);
  std::vector<std::string> hbPaths(options.shards);
  for (std::uint32_t i = 0; i < options.shards; ++i) {
    const campaign::ShardSpec spec{i, options.shards};
    journalPaths[i] = campaign::shardPath(options.journalBase, spec);
    if (!options.storeBase.empty()) {
      storePaths[i] = campaign::shardPath(options.storeBase, spec);
    }
    hbPaths[i] = heartbeatPath(journalPaths[i]);
  }

  if (options.resume) {
    sched.replay(journal->events(), clock.nowMs());
    std::cerr << "nodebench supervise: resuming campaign from "
              << supJournalPath << " (" << journal->events().size()
              << " event(s) replayed)\n";
    // Shards whose last event is AttemptStarted were in flight when the
    // previous supervisor died. Kill any worker still running (guarded
    // against pid reuse), then release the lease: the attempt was never
    // adjudicated, so it is un-burned and the shard re-runs from the
    // worker's crash-safe journal.
    for (std::uint32_t i = 0; i < options.shards; ++i) {
      if (sched.lease(i).state != ShardState::Leased) {
        continue;
      }
      killStaleWorker(sched.lease(i).pid, journalPaths[i]);
      // The journalled pid can lag reality by one fork (the previous
      // supervisor died between fork and append); the heartbeat file
      // names whoever actually beat last.
      if (const auto beat = readHeartbeatFile(hbPaths[i])) {
        if (beat->pid != sched.lease(i).pid) {
          killStaleWorker(beat->pid, journalPaths[i]);
        }
      }
      sched.release(i);
    }
  }

  DeadlineMonitor monitor;
  std::map<pid_t, RunningWorker> running;
  std::map<std::uint32_t, pid_t> shardPid;  // shard -> running pid

  const auto hbKey = [](std::uint32_t shard) {
    return "hb:" + std::to_string(shard);
  };
  const auto toKey = [](std::uint32_t shard) {
    return "to:" + std::to_string(shard);
  };

  const auto drain = [&]() -> SuperviseResult {
    std::cerr << "nodebench supervise: interrupted; draining "
              << running.size() << " worker(s)\n";
    for (const auto& [pid, worker] : running) {
      (void)::kill(pid, SIGTERM);
    }
    for (const auto& [pid, worker] : running) {
      int status = 0;
      (void)::waitpid(pid, &status, 0);
    }
    // The in-flight leases stay journalled as bare AttemptStarted
    // events: --resume releases them without burning the attempt,
    // exactly the supervisor-crash semantics.
    SuperviseResult result;
    result.exitCode = kInterruptedExitCode;
    return result;
  };

  const auto launch = [&](std::uint32_t shard) {
    const std::uint32_t attempt = sched.lease(shard).attempts;
    const campaign::ShardSpec spec{shard, options.shards};
    std::vector<std::string> workerArgs = {
        "nodebench",
        "table",
        options.table,
        "--shard",
        campaign::shardSpecText(spec),
        "--journal",
        journalPaths[shard],
        "--heartbeat",
        hbPaths[shard],
        "--heartbeat-interval-ms",
        std::to_string(options.heartbeatIntervalMs)};
    if (!options.storeBase.empty()) {
      workerArgs.push_back("--store");
      workerArgs.push_back(storePaths[shard]);
    }
    if (options.runs != 0) {
      workerArgs.push_back("--runs");
      workerArgs.push_back(std::to_string(options.runs));
    }
    if (options.jobs != 0) {
      workerArgs.push_back("--jobs");
      workerArgs.push_back(std::to_string(options.jobs));
    }
    if (!options.faultsPath.empty()) {
      workerArgs.push_back("--faults");
      workerArgs.push_back(options.faultsPath);
    }
    if (options.testCellDelayMs != 0) {
      workerArgs.push_back("--test-cell-delay-ms");
      workerArgs.push_back(std::to_string(options.testCellDelayMs));
    }
    if (options.testPoisonShard >= 0 &&
        static_cast<std::uint32_t>(options.testPoisonShard) == shard) {
      workerArgs.push_back("--test-fail-run");
    }
    if (options.testStallShard >= 0 &&
        static_cast<std::uint32_t>(options.testStallShard) == shard &&
        attempt == 1) {
      workerArgs.push_back("--test-heartbeat-stall-after");
      workerArgs.push_back("1");
    }
    // A retry (or a resumed campaign) picks up the dead worker's
    // crash-safe journal instead of re-measuring finished cells.
    if (fileExists(journalPaths[shard])) {
      workerArgs.push_back("--resume");
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
      throw Error(std::string("fork failed: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Worker: discard stdout (the deliverable is the shard journal),
      // keep stderr, become `nodebench table ... --shard i/N`.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
      }
      std::vector<char*> argvC;
      argvC.reserve(workerArgs.size() + 1);
      for (std::string& s : workerArgs) {
        argvC.push_back(s.data());
      }
      argvC.push_back(nullptr);
      ::execv("/proc/self/exe", argvC.data());
      std::fprintf(stderr, "nodebench supervise: exec failed: %s\n",
                   std::strerror(errno));
      std::_Exit(127);
    }

    sched.bind(shard, static_cast<std::uint64_t>(pid));
    SupervisorEvent event;
    event.kind = EventKind::AttemptStarted;
    event.shard = shard;
    event.attempt = attempt;
    event.pid = static_cast<std::uint64_t>(pid);
    journal->append(event);

    RunningWorker worker;
    worker.shard = shard;
    worker.attempt = attempt;
    worker.pid = pid;
    running[pid] = worker;
    shardPid[shard] = pid;

    const std::int64_t now = clock.nowMs();
    monitor.arm(hbKey(shard), clock.at(now + options.heartbeatTimeoutMs));
    if (options.attemptTimeoutMs != 0) {
      monitor.arm(toKey(shard), clock.at(now + options.attemptTimeoutMs));
    }
    std::cerr << "nodebench supervise: shard " << campaign::shardSpecText(spec)
              << " attempt " << attempt << " (pid " << pid << ") -> "
              << journalPaths[shard] << "\n";
  };

  while (!sched.allResolved()) {
    if (options.stopFlag != nullptr && *options.stopFlag != 0) {
      return drain();
    }

    // Fill free worker slots with ready leases.
    while (sched.leasedCount() < slots) {
      const auto shard = sched.acquire(clock.nowMs());
      if (!shard) {
        break;
      }
      launch(*shard);
    }

    // Reap finished workers and adjudicate their attempts.
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) {
        break;
      }
      const auto it = running.find(pid);
      if (it == running.end()) {
        continue;  // not a worker we launched (cannot happen in practice)
      }
      const RunningWorker worker = it->second;
      running.erase(it);
      shardPid.erase(worker.shard);
      monitor.disarm(hbKey(worker.shard));
      monitor.disarm(toKey(worker.shard));

      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        sched.complete(worker.shard);
        SupervisorEvent event;
        event.kind = EventKind::ShardDone;
        event.shard = worker.shard;
        event.attempt = worker.attempt;
        journal->append(event);
        std::cerr << "nodebench supervise: shard " << worker.shard
                  << " done (attempt " << worker.attempt << ")\n";
        continue;
      }

      std::string incident;
      if (!worker.pendingIncident.empty()) {
        incident = worker.pendingIncident;
      } else if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        incident = code == kInterruptedExitCode
                       ? "worker was interrupted (exit code 43)"
                       : "worker exited with code " + std::to_string(code);
      } else if (WIFSIGNALED(status)) {
        incident =
            "worker was killed by signal " + std::to_string(WTERMSIG(status));
      } else {
        incident = "worker ended with unrecognized wait status " +
                   std::to_string(status);
      }

      SupervisorEvent failed;
      failed.kind = EventKind::AttemptFailed;
      failed.shard = worker.shard;
      failed.attempt = worker.attempt;
      failed.detail = incident;
      journal->append(failed);
      const ShardState next =
          sched.fail(worker.shard, incident, clock.nowMs());
      std::cerr << "nodebench supervise: shard " << worker.shard
                << " attempt " << worker.attempt << " failed: " << incident
                << "\n";
      if (next == ShardState::Poisoned) {
        SupervisorEvent poisoned;
        poisoned.kind = EventKind::ShardPoisoned;
        poisoned.shard = worker.shard;
        poisoned.attempt = worker.attempt;
        poisoned.detail = incident;
        journal->append(poisoned);
        std::cerr << "nodebench supervise: shard " << worker.shard
                  << " POISONED after " << worker.attempt
                  << " failed attempt(s); quarantining\n";
      }
    }

    // Heartbeat liveness: a beat with a fresh sequence number re-arms
    // the shard's expiry deadline. Beats from a previous attempt's pid
    // are ignored (a stale file is silence, not liveness).
    for (auto& [pid, worker] : running) {
      const auto beat = readHeartbeatFile(hbPaths[worker.shard]);
      if (beat && beat->pid == static_cast<std::uint64_t>(worker.pid) &&
          beat->seq > worker.lastSeq) {
        worker.lastSeq = beat->seq;
        monitor.arm(hbKey(worker.shard),
                    clock.at(clock.nowMs() + options.heartbeatTimeoutMs));
      }
    }

    // Expire wedged workers and stragglers: SIGKILL now, record why;
    // the wait-status classification above turns the pending incident
    // into the journalled failure when the corpse is reaped.
    for (const std::string& id : monitor.expired(clock.now())) {
      const bool isHeartbeat = id.rfind("hb:", 0) == 0;
      const auto shard =
          static_cast<std::uint32_t>(std::stoul(id.substr(3)));
      const auto pidIt = shardPid.find(shard);
      if (pidIt == shardPid.end()) {
        continue;  // already reaped between arm and expiry
      }
      const auto workerIt = running.find(pidIt->second);
      if (workerIt == running.end()) {
        continue;
      }
      RunningWorker& worker = workerIt->second;
      if (worker.pendingIncident.empty()) {
        worker.pendingIncident =
            isHeartbeat
                ? "worker missed heartbeats for " +
                      std::to_string(options.heartbeatTimeoutMs) +
                      "ms (last sequence " + std::to_string(worker.lastSeq) +
                      "); killed as wedged"
                : "worker exceeded the attempt wall-clock budget of " +
                      std::to_string(options.attemptTimeoutMs) +
                      "ms; killed as a straggler";
      }
      std::cerr << "nodebench supervise: expiring shard " << shard
                << " (pid " << worker.pid << "): " << worker.pendingIncident
                << "\n";
      (void)::kill(worker.pid, SIGKILL);
      monitor.disarm(hbKey(shard));
      monitor.disarm(toKey(shard));
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  SuperviseResult result;
  result.quarantined = sched.quarantined();
  const std::vector<std::uint32_t> done = sched.doneShards();

  if (!result.quarantined.empty()) {
    result.exitCode = kPartialCampaignExitCode;
    for (const campaign::ShardGap& gap : result.quarantined) {
      std::cerr << "nodebench supervise: shard " << gap.shard
                << " quarantined after " << gap.attempts
                << " failed attempt(s); last incident: " << gap.lastIncident
                << "\n";
    }
  }

  if (options.mergeOut.empty()) {
    std::cerr << "nodebench supervise: campaign resolved: " << done.size()
              << " shard(s) done, " << result.quarantined.size()
              << " quarantined; journals at " << options.journalBase
              << ".shard*of" << options.shards << "\n";
    return result;
  }

  if (done.empty()) {
    std::cerr << "nodebench supervise: every shard is quarantined; "
                 "nothing to merge\n";
    return result;
  }

  std::vector<campaign::ShardInput> inputs;
  inputs.reserve(done.size());
  for (const std::uint32_t shard : done) {
    inputs.push_back(campaign::readShardInput(journalPaths[shard]));
  }
  campaign::MergeOptions mopt;
  mopt.allowPartial = !result.quarantined.empty();
  mopt.quarantined = result.quarantined;
  const campaign::MergedCampaign merged =
      campaign::mergeShardJournals(inputs, mopt);
  campaign::io::atomicWrite(options.mergeOut, merged.journalBytes,
                            "supervise merge");
  std::cout << "merged " << inputs.size() << " shard journal(s) -> "
            << options.mergeOut << "\n";

  if (!options.mergeStoreOut.empty()) {
    std::vector<stats::ShardStoreInput> stores;
    stores.reserve(done.size());
    for (const std::uint32_t shard : done) {
      stores.push_back(stats::loadShardStoreInput(storePaths[shard]));
    }
    const std::vector<std::uint8_t> bytes =
        stats::mergeShardStores(stores, merged);
    campaign::io::atomicWrite(options.mergeStoreOut, bytes,
                              "supervise merge");
    std::cout << "merged " << stores.size() << " shard store(s) -> "
              << options.mergeStoreOut << "\n";
  }

  if (merged.partial) {
    const std::string gapPath = options.gapOut.empty()
                                    ? options.mergeOut + ".gaps.json"
                                    : options.gapOut;
    const std::string manifest = campaign::renderGapManifest(merged);
    campaign::io::atomicWrite(
        gapPath,
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(manifest.data()),
            manifest.size()),
        "gap manifest");
    std::cerr << "nodebench supervise: PARTIAL merge: "
              << merged.missingCells.size() << " cell(s) from "
              << merged.missingShards.size()
              << " quarantined shard(s) are missing; gap manifest at "
              << gapPath << "\n";
  }

  return result;
}

}  // namespace nodebench::supervise
