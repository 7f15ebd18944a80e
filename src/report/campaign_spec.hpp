#pragma once
/// \file campaign_spec.hpp
/// \brief One campaign's parameters, from argv to the harness and back to
/// worker argv.
///
/// A table's numbers are only defined together with the parameters that
/// produced them: the selector, the binary runs per cell, the fault plan
/// and the shard split. `CampaignSpec` is their one home. This module
/// spells every campaign flag once, in both directions: the flag rows and
/// parse() read them from a command line, and workerArgv() writes them
/// back for the `table` workers that `shard` and `supervise` start.
/// OpenCampaign then turns a spec into the TableOptions a run measures
/// with, so `table`, `export`, `faults` and the supervisor's fingerprint
/// all derive their configuration the same way.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/heartbeat.hpp"
#include "campaign/shard.hpp"
#include "core/flags.hpp"
#include "faults/fault_plan.hpp"
#include "report/tables.hpp"
#include "stats/store.hpp"

namespace nodebench::report {

/// The hidden hooks the crash and chaos suites drive. They change timing
/// and failure, never results, so none of them is fingerprinted.
struct TestHooks {
  int crashAfterCell = 0;       ///< exit 42 after N journal appends
  int cellDelayMs = 0;          ///< sleep before every cell
  bool failRun = false;         ///< fail once the journal and store exist
  int heartbeatStallAfter = 0;  ///< stop beating (keep running) after N beats
  int poisonShard = -1;         ///< supervise: this shard's attempts all fail
  int stallShard = -1;          ///< supervise: its first attempt stalls

  [[nodiscard]] bool operator==(const TestHooks&) const = default;
};

struct CampaignSpec {
  std::string selector;     ///< table selector ("4", "all", "sweep", ...)
  int runs = 0;             ///< binary runs per cell; 0 = the default
  int jobs = 0;             ///< worker threads; 0 = hardware concurrency
  std::string faultsPath;   ///< fault plan file; "" = fair weather
  std::string journal;      ///< journal file; BASE for shard/supervise
  std::string store;        ///< results store file; BASE for shard/supervise
  bool resume = false;
  std::optional<campaign::ShardSpec> shard;  ///< `--shard i/N`
  std::uint32_t shards = 0;                  ///< `--shards N` of a driver
  std::string heartbeat;                     ///< heartbeat file; "" = none
  std::uint32_t heartbeatIntervalMs = 100;
  TestHooks hooks;

  [[nodiscard]] bool operator==(const CampaignSpec&) const = default;

  // The campaign flag rows, in the groups a command joins with its own.
  /// --runs and --jobs: every command that measures.
  [[nodiscard]] static std::vector<flags::Flag> runFlags();
  /// --faults, --journal and --store: every campaign but the `faults` demo.
  [[nodiscard]] static std::vector<flags::Flag> fileFlags();
  /// --resume, --shard and --crash-after-cell of a one-process run
  /// (`table`, `export`), each requiring --journal.
  [[nodiscard]] static std::vector<flags::Flag> singleRunFlags();
  /// What a driver gives its `table` workers besides the above: the
  /// heartbeat and the per-attempt hooks.
  [[nodiscard]] static std::vector<flags::Flag> workerFlags();
  /// --resume, --shards and the cell delay of a driver (`shard`,
  /// `supervise`), which requires --journal BASE outright.
  [[nodiscard]] static std::vector<flags::Flag> driverFlags();
  /// `supervise`'s: the workers' beat interval and the chaos hooks.
  [[nodiscard]] static std::vector<flags::Flag> supervisorFlags();

  /// Reads every campaign flag present in `args`; the selector is left
  /// to the caller, whose positional it is.
  [[nodiscard]] static CampaignSpec parse(const flags::Parsed& args);

  /// BASE.shard<i>of<N> for each of the `shards` workers; "" each
  /// without a BASE.
  [[nodiscard]] std::vector<std::string> shardFiles(
      const std::string& base) const;

  /// The argv of the `table` worker that measures shard `index` of
  /// `shards` into BASE.shard<i>of<N> and heartbeats next to its journal
  /// every heartbeatIntervalMs. The caller decides whether the worker
  /// resumes its journal and which hooks this attempt gets. The shard
  /// journal path is one argv element: the launcher's stale-worker guard
  /// matches it in /proc cmdlines.
  [[nodiscard]] std::vector<std::string> workerArgv(
      std::uint32_t index, bool resumeWorker,
      const TestHooks& workerHooks) const;
};

/// A campaign opened from its spec: the fault plan, shard plan, journal,
/// results store and heartbeat that options() points at, owned for the
/// run's lifetime (so it is neither copied nor moved).
class OpenCampaign {
 public:
  /// Opens what `spec` names. A resumed campaign reattaches its journal
  /// and store after checking their fingerprints; a journaled run also
  /// stops cleanly on SIGINT/SIGTERM (exit 43, resumable). Journal and
  /// store chatter goes to stderr, so stdout stays byte-identical to a
  /// run without them.
  explicit OpenCampaign(const CampaignSpec& spec);
  OpenCampaign(const OpenCampaign&) = delete;
  OpenCampaign& operator=(const OpenCampaign&) = delete;

  [[nodiscard]] const TableOptions& options() const { return options_; }

  /// Runs `measure` on options(), then commits the store and the journal
  /// — also when `measure` is cancelled, before the CancelledError that
  /// becomes exit 43 propagates. So an exit 0 or 43 (what `shard` and
  /// `supervise` read as a worker's verdict) leaves every measured cell
  /// durable. A failed commit throws `<noun> fsync failed: <path>:
  /// <errno>` instead (exit 1).
  void run(const std::function<void(const TableOptions&)>& measure);

 private:
  std::optional<faults::FaultPlan> plan_;
  std::unique_ptr<campaign::ShardPlan> shard_;
  std::unique_ptr<campaign::Journal> journal_;
  std::unique_ptr<stats::ResultStore> store_;
  std::unique_ptr<campaign::HeartbeatWriter> heartbeat_;
  TableOptions options_;
};

}  // namespace nodebench::report
