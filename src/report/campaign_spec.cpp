#include "report/campaign_spec.hpp"

#include <iostream>

#include "campaign/journal.hpp"
#include "core/cancel.hpp"

namespace nodebench::report {

using flags::Flag;
using flags::Kind;

namespace {

/// Slows every cell, so the crash and chaos suites can land a signal
/// mid-campaign; a driver hands its own to every worker.
Flag cellDelayFlag() {
  return {"--test-cell-delay-ms", Kind::PositiveInt, {}, true};
}

}  // namespace

std::vector<Flag> CampaignSpec::runFlags() {
  return {{"--runs", Kind::PositiveInt}, {"--jobs", Kind::PositiveInt}};
}

std::vector<Flag> CampaignSpec::fileFlags() {
  return {{"--faults", Kind::Text},
          {"--journal", Kind::Text},
          {"--store", Kind::Text}};
}

std::vector<Flag> CampaignSpec::singleRunFlags() {
  return {{"--resume", Kind::Switch,
           {{"--journal", "--resume requires --journal FILE"}}},
          // An unjournalled shard run would produce nothing `nodebench
          // merge` could consume, which is never what the user meant.
          {"--shard", Kind::Text,
           {{"--journal", "--shard requires --journal FILE (the shard "
                          "journal is what `nodebench merge` consumes)"}}},
          {"--crash-after-cell", Kind::PositiveInt,
           {{"--journal", "--crash-after-cell requires --journal FILE"}},
           true}};
}

std::vector<Flag> CampaignSpec::workerFlags() {
  // A supervised worker beats a heartbeat file for the campaign's
  // duration (see campaign/heartbeat.hpp).
  return {{"--heartbeat", Kind::Text, {}, true},
          {"--heartbeat-interval-ms", Kind::PositiveInt,
           {{"--heartbeat",
             "--heartbeat-interval-ms requires --heartbeat FILE"}},
           true},
          {"--test-heartbeat-stall-after", Kind::PositiveInt,
           {{"--heartbeat",
             "--test-heartbeat-stall-after requires --heartbeat FILE"}},
           true},
          cellDelayFlag(),
          {"--test-fail-run", Kind::Switch, {}, true}};
}

std::vector<Flag> CampaignSpec::driverFlags() {
  return {{"--resume"}, {"--shards", Kind::PositiveInt}, cellDelayFlag()};
}

std::vector<Flag> CampaignSpec::supervisorFlags() {
  return {{"--heartbeat-interval-ms", Kind::PositiveInt},
          {"--test-poison-shard", Kind::NonNegativeInt, {}, true},
          {"--test-stall-shard", Kind::NonNegativeInt, {}, true}};
}

CampaignSpec CampaignSpec::parse(const flags::Parsed& args) {
  CampaignSpec spec;
  args.read("--runs", spec.runs);
  args.read("--jobs", spec.jobs);
  args.read("--faults", spec.faultsPath);
  args.read("--journal", spec.journal);
  args.read("--store", spec.store);
  spec.resume = args.has("--resume");
  if (args.has("--shard")) {
    spec.shard = campaign::parseShardSpec(args.text("--shard"));
  }
  if (args.read("--shards", spec.shards) &&
      spec.shards > campaign::kMaxShardCount) {
    throw Error("--shards must be at most " +
                std::to_string(campaign::kMaxShardCount));
  }
  args.read("--heartbeat", spec.heartbeat);
  args.read("--heartbeat-interval-ms", spec.heartbeatIntervalMs);
  args.read("--crash-after-cell", spec.hooks.crashAfterCell);
  args.read("--test-cell-delay-ms", spec.hooks.cellDelayMs);
  spec.hooks.failRun = args.has("--test-fail-run");
  args.read("--test-heartbeat-stall-after", spec.hooks.heartbeatStallAfter);
  args.read("--test-poison-shard", spec.hooks.poisonShard);
  args.read("--test-stall-shard", spec.hooks.stallShard);
  return spec;
}

std::vector<std::string> CampaignSpec::shardFiles(
    const std::string& base) const {
  std::vector<std::string> paths(shards);
  for (std::uint32_t i = 0; i < shards && !base.empty(); ++i) {
    paths[i] = campaign::shardPath(base, campaign::ShardSpec{i, shards});
  }
  return paths;
}

std::vector<std::string> CampaignSpec::workerArgv(
    std::uint32_t index, bool resumeWorker,
    const TestHooks& workerHooks) const {
  const campaign::ShardSpec spec{index, shards};
  const std::string shardJournal = campaign::shardPath(journal, spec);
  std::vector<std::string> argv = {"nodebench", "table", selector,
                                   "--shard", campaign::shardSpecText(spec),
                                   "--journal", shardJournal};
  const auto add = [&](const char* flag, const std::string& value) {
    argv.insert(argv.end(), {flag, value});
  };
  const auto addCount = [&](const char* flag, std::int64_t value) {
    if (value > 0) {
      add(flag, std::to_string(value));
    }
  };
  add("--heartbeat", campaign::heartbeatPath(shardJournal));
  addCount("--heartbeat-interval-ms", heartbeatIntervalMs);
  if (!store.empty()) {
    add("--store", campaign::shardPath(store, spec));
  }
  addCount("--runs", runs);
  addCount("--jobs", jobs);
  if (!faultsPath.empty()) {
    add("--faults", faultsPath);
  }
  addCount("--crash-after-cell", workerHooks.crashAfterCell);
  addCount("--test-cell-delay-ms", workerHooks.cellDelayMs);
  if (workerHooks.failRun) {
    argv.emplace_back("--test-fail-run");
  }
  addCount("--test-heartbeat-stall-after", workerHooks.heartbeatStallAfter);
  if (resumeWorker) {
    argv.emplace_back("--resume");
  }
  return argv;
}

OpenCampaign::OpenCampaign(const CampaignSpec& spec) {
  if (spec.runs > 0) {
    options_.binaryRuns = spec.runs;
  }
  options_.jobs = spec.jobs;
  options_.testCellDelayMs = spec.hooks.cellDelayMs;
  if (!spec.faultsPath.empty()) {
    plan_ = faults::FaultPlan::load(spec.faultsPath);
    options_.faults = &*plan_;
  }
  if (spec.shard) {
    shard_ = std::make_unique<campaign::ShardPlan>(*spec.shard);
    options_.shard = shard_.get();
  }
  // Both headers fingerprint the final configuration, so the journal and
  // the store open last.
  const campaign::CampaignConfig cfg = campaignConfig(options_);
  if (!spec.journal.empty()) {
    if (spec.resume) {
      journal_ = campaign::Journal::resume(spec.journal, cfg);
      for (const std::string& warning : journal_->warnings()) {
        std::cerr << "nodebench: warning: " << warning << "\n";
      }
      std::cerr << "nodebench: resuming campaign from " << spec.journal
                << " (" << journal_->cellRecordCount()
                << " cell(s) already measured)\n";
    } else {
      journal_ = campaign::Journal::create(spec.journal, cfg);
    }
    if (spec.hooks.crashAfterCell > 0) {
      journal_->setCrashAfterAppends(spec.hooks.crashAfterCell);
    }
    options_.journal = journal_.get();
  }
  if (!spec.store.empty()) {
    store_ = stats::ResultStore::attach(spec.store, cfg, spec.resume);
    for (const std::string& warning : store_->warnings()) {
      std::cerr << "nodebench: warning: " << warning << "\n";
    }
    if (spec.resume && store_->recordCount() > 0) {
      std::cerr << "nodebench: reattaching results store " << spec.store
                << " (" << store_->recordCount()
                << " record(s) already stored)\n";
    }
    options_.store = store_.get();
  }
  if (journal_) {
    // With a journal the harness can finish the in-flight cell and exit
    // 43 for --resume; without one, dying on the signal is right.
    installInterruptHandlers();
    options_.cancel = &interruptToken();
  }
  if (!spec.heartbeat.empty()) {
    heartbeat_ = std::make_unique<campaign::HeartbeatWriter>(
        spec.heartbeat, spec.heartbeatIntervalMs,
        static_cast<std::uint64_t>(spec.hooks.heartbeatStallAfter));
  }
  if (spec.hooks.failRun) {
    // Fires after the journal and store exist, so the supervisor's retry
    // has real artifacts to resume, as a mid-campaign crash leaves.
    throw Error("test failure injected by --test-fail-run");
  }
}

void OpenCampaign::run(
    const std::function<void(const TableOptions&)>& measure) {
  const auto commit = [&] {
    if (store_) {
      store_->commit();
    }
    if (journal_) {
      journal_->commit();
    }
  };
  try {
    measure(options_);
  } catch (const CancelledError&) {
    commit();
    throw;
  }
  commit();
}

}  // namespace nodebench::report
