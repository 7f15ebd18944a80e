/// \file worker_argv_test.cpp
/// \brief CampaignSpec::workerArgv against the `table` flag table: the
/// argv a driver hands its workers parses back, through the same table a
/// user's `nodebench table` goes through, to the worker's spec, field by
/// field and hook by hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "report/campaign_spec.hpp"

namespace nodebench::report {
namespace {

/// Parses a worker argv ("nodebench table <selector> ...") the way the
/// worker process does.
CampaignSpec reparse(const std::vector<std::string>& argv) {
  EXPECT_EQ(argv.at(1), "table");
  for (const flags::Command& command : cli::commands()) {
    if (command.name == "table") {
      const flags::Parsed args = flags::parse(
          command, std::span<const std::string>(argv).subspan(2));
      CampaignSpec spec = CampaignSpec::parse(args);
      spec.selector = args.positionals.at(0);
      return spec;
    }
  }
  ADD_FAILURE() << "no table command";
  return {};
}

TEST(WorkerArgv, ReparsesToTheWorkerSpecForEveryFieldAndHook) {
  CampaignSpec campaign;
  campaign.selector = "all";
  campaign.runs = 7;
  campaign.jobs = 3;
  campaign.faultsPath = "plan.json";
  campaign.journal = "base.nbj";
  campaign.store = "base.nbs";
  campaign.resume = true;
  campaign.shards = 4;
  campaign.heartbeatIntervalMs = 150;
  // The driver's own hooks reach a worker only through `workerHooks`.
  campaign.hooks.poisonShard = 2;
  campaign.hooks.stallShard = 1;
  campaign.hooks.cellDelayMs = 99;

  TestHooks hooks;
  hooks.crashAfterCell = 2;
  hooks.cellDelayMs = 5;
  hooks.failRun = true;
  hooks.heartbeatStallAfter = 1;

  CampaignSpec expected;
  expected.selector = "all";
  expected.runs = 7;
  expected.jobs = 3;
  expected.faultsPath = "plan.json";
  expected.journal = "base.nbj.shard2of4";
  expected.store = "base.nbs.shard2of4";
  expected.resume = true;
  expected.shard = campaign::ShardSpec{2, 4};
  expected.heartbeat = "base.nbj.shard2of4.hb";
  expected.heartbeatIntervalMs = 150;
  expected.hooks = hooks;
  EXPECT_EQ(reparse(campaign.workerArgv(2, true, hooks)), expected);
}

TEST(WorkerArgv, AnUnsetFieldStaysUnset) {
  CampaignSpec campaign;
  campaign.selector = "4";
  campaign.journal = "j";
  campaign.shards = 2;
  campaign.resume = true;  // the caller decides each worker's --resume

  // Every worker heartbeats next to its journal, at the default interval.
  CampaignSpec expected;
  expected.selector = "4";
  expected.journal = "j.shard0of2";
  expected.shard = campaign::ShardSpec{0, 2};
  expected.heartbeat = "j.shard0of2.hb";
  EXPECT_EQ(reparse(campaign.workerArgv(0, false, TestHooks{})), expected);
}

TEST(WorkerArgv, TheShardJournalIsOneArgument) {
  CampaignSpec campaign;
  campaign.selector = "5";
  campaign.journal = "dir with space/j";
  campaign.shards = 3;
  const std::vector<std::string> argv =
      campaign.workerArgv(1, false, TestHooks{});
  EXPECT_NE(std::find(argv.begin(), argv.end(),
                      "dir with space/j.shard1of3"),
            argv.end());
}

}  // namespace
}  // namespace nodebench::report
