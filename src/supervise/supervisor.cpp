#include "supervise/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

// glibc 2.36's <sys/pidfd.h> lacks the extern "C" guards its other
// headers carry; the headers it includes are already in above.
extern "C" {
#include <sys/pidfd.h>
}

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <utility>

#include "campaign/framed_log.hpp"
#include "campaign/heartbeat.hpp"
#include "campaign/journal.hpp"
#include "core/deadline.hpp"
#include "core/error.hpp"
#include "report/reports.hpp"
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

/// A process's pidfd, closed with the handle: readable once the process
/// has exited, child or not, and a signal sent through it reaches that
/// process even after its pid is recycled.
class Pidfd {
 public:
  explicit Pidfd(pid_t pid) : fd_(::pidfd_open(pid, 0)) {}
  Pidfd(Pidfd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ~Pidfd() {
    if (fd_ >= 0) {
      (void)::close(fd_);
    }
  }

  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// One live worker process, keyed by shard in the event loop.
struct RunningWorker {
  std::uint32_t attempt = 0;
  pid_t pid = -1;
  Pidfd pidfd;                ///< what the loop waits on
  std::uint64_t lastSeq = 0;  ///< highest heartbeat sequence seen
  /// Set when the supervisor itself killed the worker (missed
  /// heartbeats, straggler timeout); becomes the incident text at reap
  /// time so the journal records *why*, not just "killed by signal 9".
  std::string pendingIncident;
};

/// Starts a worker: forks, sends its stdout to /dev/null (the deliverable
/// is its journal), keeps stderr, and execs this binary with `argv`.
pid_t spawnWorker(std::vector<std::string> argv) {
  std::vector<char*> argvC;
  argvC.reserve(argv.size() + 1);
  for (std::string& arg : argv) {
    argvC.push_back(arg.data());
  }
  argvC.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw Error(std::string("fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    ::execv("/proc/self/exe", argvC.data());
    std::fprintf(stderr, "nodebench: worker exec failed: %s\n",
                 std::strerror(errno));
    std::_Exit(127);
  }
  return pid;
}

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

/// Kills a worker left over from a launcher that died, then waits for it
/// to exit so its journal is quiescent before a replacement resumes it.
/// Only kills a process whose cmdline names the shard journal — a
/// recycled pid belonging to someone else is left alone — and signals
/// through a pidfd opened before that check, so the signal reaches the
/// process that was checked.
void killStaleWorker(std::uint64_t pid64, const std::string& shardJournal) {
  if (pid64 == 0 || pid64 > static_cast<std::uint64_t>(
                                std::numeric_limits<pid_t>::max())) {
    return;
  }
  const auto pid = static_cast<pid_t>(pid64);
  const Pidfd process(pid);
  if (process.get() < 0 || !cmdlineMentions(pid, shardJournal)) {
    return;  // already gone, or not a worker of this shard
  }
  std::cerr << "nodebench supervise: killing stale worker pid " << pid
            << " (" << shardJournal << ")\n";
  (void)::pidfd_send_signal(process.get(), SIGKILL, nullptr, 0);
  // Not our child (its launcher died), so waitpid cannot reap it, but
  // its pidfd turns readable once it has exited. Bounded: a kill that
  // has not landed after 5s means something is deeply wrong with the
  // host.
  pollfd exited{process.get(), POLLIN, 0};
  int ready = 0;
  while ((ready = ::poll(&exited, 1, 5000)) < 0 && errno == EINTR) {
  }
  if (ready <= 0) {
    throw Error("stale worker pid " + std::to_string(pid) +
                " did not die within 5s of SIGKILL");
  }
}

}  // namespace

int runSupervise(const SuperviseOptions& options) {
  const report::CampaignSpec& spec = options.campaign;
  const std::uint32_t shards = spec.shards;
  // Resolved before the supervisor journal exists or any worker forks:
  // a bad selector would otherwise burn every attempt of every shard.
  (void)report::selectReports(spec.selector);
  if (options.maxAttempts == 0) {
    throw Error("--max-attempts must be at least 1");
  }
  if (options.heartbeatTimeoutMs <= spec.heartbeatIntervalMs) {
    throw Error("--heartbeat-timeout-ms must exceed "
                "--heartbeat-interval-ms, or every healthy worker "
                "would be expired between beats");
  }

  // Per-shard file paths, fixed for the campaign's lifetime.
  const std::vector<std::string> journalPaths = spec.shardFiles(spec.journal);
  const std::vector<std::string> storePaths = spec.shardFiles(spec.store);
  std::vector<std::string> hbPaths;
  for (const std::string& path : journalPaths) {
    hbPaths.push_back(campaign::heartbeatPath(path));
  }
  if (!spec.resume) {
    // A fresh campaign writes over nothing: a shard file it would write
    // belongs to an earlier campaign, which only --resume may continue,
    // and a merged artifact is never silently replaced.
    for (std::uint32_t i = 0; i < shards; ++i) {
      campaign::refuseExistingLog(campaign::kJournalFormat.label,
                                  journalPaths[i]);
      campaign::refuseExistingLog("store", storePaths[i]);
    }
    options.merge.refuseExisting();
  }

  const std::uint32_t slots =
      options.workers == 0 ? shards : std::min(options.workers, shards);

  // The supervisor journal and the backoff seed fingerprint the campaign
  // as `table` opens it, less --jobs and the shard split, which the
  // supervisor's own record has never carried.
  report::CampaignSpec fingerprint;
  fingerprint.runs = spec.runs;
  fingerprint.faultsPath = spec.faultsPath;
  const campaign::CampaignConfig cfg =
      report::campaignConfig(report::OpenCampaign(fingerprint).options());

  SupervisorConfig scfg;
  scfg.campaign = cfg;
  scfg.shards = shards;
  scfg.maxAttempts = options.maxAttempts;
  scfg.backoffBaseMs = options.backoff.baseMs;
  scfg.backoffCapMs = options.backoff.capMs;

  const std::string& supJournalPath = options.supervisorJournalPath;
  std::unique_ptr<SupervisorJournal> journal;
  if (!supJournalPath.empty()) {
    journal = spec.resume ? SupervisorJournal::resume(supJournalPath, scfg)
                          : SupervisorJournal::create(supJournalPath, scfg);
    for (const std::string& warning : journal->warnings()) {
      std::cerr << "nodebench supervise: warning: " << warning << "\n";
    }
  }
  const auto record = [&](const SupervisorEvent& event) {
    if (journal) {
      journal->append(event);
    }
  };

  WallClock clock;
  LeaseScheduler sched(shards, options.maxAttempts, options.backoff, cfg);

  if (spec.resume) {
    if (journal) {
      sched.replay(journal->events(), clock.nowMs());
      std::cerr << "nodebench supervise: resuming campaign from "
                << supJournalPath << " (" << journal->events().size()
                << " event(s) replayed)\n";
    }
    // A worker of a launcher that died may still be measuring: kill it
    // (guarded against pid reuse) before anything launches, or it keeps
    // appending to the journal its replacement resumes. The heartbeat
    // file names whoever beat last, the journalled pid of a leased shard
    // a worker that had not beaten yet; that attempt was never
    // adjudicated, so its lease is released un-burned.
    for (std::uint32_t i = 0; i < shards; ++i) {
      if (sched.lease(i).state == ShardState::Leased) {
        killStaleWorker(sched.lease(i).pid, journalPaths[i]);
        sched.release(i);
      }
      if (const auto beat = campaign::readHeartbeatFile(hbPaths[i])) {
        killStaleWorker(beat->pid, journalPaths[i]);
      }
    }
  }

  DeadlineMonitor monitor;
  std::map<std::uint32_t, RunningWorker> running;  // by shard

  const auto hbKey = [](std::uint32_t shard) {
    return "hb:" + std::to_string(shard);
  };
  const auto toKey = [](std::uint32_t shard) {
    return "to:" + std::to_string(shard);
  };

  const auto drain = [&] {
    std::cerr << "nodebench supervise: interrupted; draining "
              << running.size() << " worker(s)\n";
    for (const auto& [shard, worker] : running) {
      (void)::kill(worker.pid, SIGTERM);
    }
    for (const auto& [shard, worker] : running) {
      int status = 0;
      (void)::waitpid(worker.pid, &status, 0);
    }
    // The in-flight leases stay journalled as bare AttemptStarted
    // events: --resume releases them without burning the attempt,
    // exactly the supervisor-crash semantics.
    std::cerr << "nodebench supervise: campaign interrupted; rerun the "
                 "same command with --resume to finish\n";
    return kInterruptedExitCode;
  };

  const auto launch = [&](std::uint32_t shard) {
    const std::uint32_t attempt = sched.lease(shard).attempts;
    // The chaos hooks poison every attempt of one shard, or stall the
    // first attempt's heartbeat of another.
    const auto index = static_cast<int>(shard);
    report::TestHooks hooks;
    hooks.cellDelayMs = spec.hooks.cellDelayMs;
    hooks.failRun = spec.hooks.poisonShard == index;
    hooks.heartbeatStallAfter =
        spec.hooks.stallShard == index && attempt == 1 ? 1 : 0;
    // A retry (or a resumed campaign) picks up the dead worker's
    // crash-safe journal instead of re-measuring finished cells.
    const bool resume = std::filesystem::exists(journalPaths[shard]);
    const pid_t pid = spawnWorker(spec.workerArgv(shard, resume, hooks));
    Pidfd pidfd(pid);
    if (pidfd.get() < 0) {
      const std::string why = std::strerror(errno);
      (void)::kill(pid, SIGKILL);
      throw Error("pidfd_open failed: " + why);
    }

    sched.bind(shard, static_cast<std::uint64_t>(pid));
    SupervisorEvent event;
    event.kind = EventKind::AttemptStarted;
    event.shard = shard;
    event.attempt = attempt;
    event.pid = static_cast<std::uint64_t>(pid);
    record(event);
    running.emplace(shard, RunningWorker{.attempt = attempt,
                                         .pid = pid,
                                         .pidfd = std::move(pidfd),
                                         .lastSeq = 0,
                                         .pendingIncident = {}});

    const std::int64_t now = clock.nowMs();
    monitor.arm(hbKey(shard), clock.at(now + options.heartbeatTimeoutMs));
    if (options.attemptTimeoutMs != 0) {
      monitor.arm(toKey(shard), clock.at(now + options.attemptTimeoutMs));
    }
    std::cerr << "nodebench supervise: shard "
              << campaign::shardSpecText(campaign::ShardSpec{shard, shards})
              << " attempt " << attempt << " (pid " << pid << ") -> "
              << journalPaths[shard] << "\n";
  };

  // Adjudicates the attempt of a worker whose pidfd turned readable;
  // returns the next running worker.
  const auto reap = [&](decltype(running)::iterator it) {
    const std::uint32_t shard = it->first;
    const RunningWorker worker = std::move(it->second);
    const auto after = running.erase(it);
    int status = 0;
    if (::waitpid(worker.pid, &status, 0) != worker.pid) {
      throw Error(std::string("waitpid failed: ") + std::strerror(errno));
    }
    monitor.disarm(hbKey(shard));
    monitor.disarm(toKey(shard));

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      sched.complete(shard);
      SupervisorEvent event;
      event.kind = EventKind::ShardDone;
      event.shard = shard;
      event.attempt = worker.attempt;
      record(event);
      std::cerr << "nodebench supervise: shard " << shard
                << " done (attempt " << worker.attempt << ")\n";
      return after;
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
    failed.shard = shard;
    failed.attempt = worker.attempt;
    failed.detail = incident;
    record(failed);
    const ShardState next = sched.fail(shard, incident, clock.nowMs());
    std::cerr << "nodebench supervise: shard " << shard << " attempt "
              << worker.attempt << " failed: " << incident << "\n";
    if (next == ShardState::Poisoned) {
      SupervisorEvent poisoned;
      poisoned.kind = EventKind::ShardPoisoned;
      poisoned.shard = shard;
      poisoned.attempt = worker.attempt;
      poisoned.detail = incident;
      record(poisoned);
      std::cerr << "nodebench supervise: shard " << shard << " POISONED after "
                << worker.attempt << " failed attempt(s); quarantining\n";
    }
    return after;
  };

  std::vector<pollfd> waitSet;
  while (!sched.allResolved()) {
    if (options.stopFlag != nullptr && options.stopFlag->requested()) {
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

    // Heartbeat liveness: a beat with a fresh sequence number re-arms
    // the shard's expiry deadline. Beats from a previous attempt's pid
    // are ignored (a stale file is silence, not liveness).
    for (auto& [shard, worker] : running) {
      const auto beat = campaign::readHeartbeatFile(hbPaths[shard]);
      if (beat && beat->pid == static_cast<std::uint64_t>(worker.pid) &&
          beat->seq > worker.lastSeq) {
        worker.lastSeq = beat->seq;
        monitor.arm(hbKey(shard),
                    clock.at(clock.nowMs() + options.heartbeatTimeoutMs));
      }
    }

    // Expire wedged workers and stragglers: SIGKILL now, record why;
    // reap() turns the pending incident into the journalled failure
    // once the corpse's pidfd turns readable.
    for (const std::string& id : monitor.expired(clock.now())) {
      const bool isHeartbeat = id.rfind("hb:", 0) == 0;
      const auto shard =
          static_cast<std::uint32_t>(std::stoul(id.substr(3)));
      const auto it = running.find(shard);
      if (it == running.end()) {
        continue;  // already reaped between arm and expiry
      }
      RunningWorker& worker = it->second;
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

    // Sleep until a worker exits, a signal interrupts the wait (the stop
    // token is checked first thing), or the earliest deadline falls due:
    // an expiry, a backoff window with a slot free for it, or the next
    // heartbeat read, which also bounds how long a signal that landed
    // just before poll() goes unseen.
    std::int64_t waitMs = spec.heartbeatIntervalMs;
    if (const auto next = monitor.nextDeadline()) {
      waitMs = std::min<std::int64_t>(
          waitMs,
          std::chrono::ceil<std::chrono::milliseconds>(*next - clock.now())
              .count());
    }
    if (sched.leasedCount() < slots) {
      if (const auto ready = sched.nextPendingReadyMs()) {
        waitMs = std::min(waitMs, *ready - clock.nowMs());
      }
    }
    waitSet.clear();
    for (const auto& [shard, worker] : running) {
      waitSet.push_back(pollfd{worker.pidfd.get(), POLLIN, 0});
    }
    if (::poll(waitSet.data(), static_cast<nfds_t>(waitSet.size()),
               static_cast<int>(std::max<std::int64_t>(waitMs, 0))) < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw Error(std::string("poll failed: ") + std::strerror(errno));
    }
    for (auto it = running.begin(); const pollfd& entry : waitSet) {
      it = (entry.revents & POLLIN) != 0 ? reap(it) : std::next(it);
    }
  }

  campaign::MergeOptions mopt;
  mopt.quarantined = sched.quarantined();
  mopt.allowPartial = !mopt.quarantined.empty();
  const int exitCode = mopt.allowPartial ? stats::kPartialCampaignExitCode : 0;
  for (const campaign::ShardGap& gap : mopt.quarantined) {
    std::cerr << "nodebench supervise: shard " << gap.shard
              << " quarantined after " << gap.attempts
              << " failed attempt(s); last incident: " << gap.lastIncident
              << "\n";
  }
  const std::vector<std::uint32_t> done = sched.doneShards();

  if (options.merge.journal.empty()) {
    std::cerr << "nodebench supervise: campaign resolved: " << done.size()
              << " shard(s) done, " << mopt.quarantined.size()
              << " quarantined; journals at " << spec.journal
              << ".shard*of" << shards << "\n";
    return exitCode;
  }

  if (done.empty()) {
    std::cerr << "nodebench supervise: every shard is quarantined; "
                 "nothing to merge\n";
    return exitCode;
  }

  std::vector<std::string> doneJournals;
  std::vector<std::string> doneStores;
  for (const std::uint32_t shard : done) {
    doneJournals.push_back(journalPaths[shard]);
    doneStores.push_back(storePaths[shard]);
  }
  // Re-merges over its own earlier outputs: a --resume after a kill
  // between the two merge writes must be able to finish them.
  return stats::writeMerge(doneJournals, doneStores, options.merge, mopt);
}

}  // namespace nodebench::supervise
