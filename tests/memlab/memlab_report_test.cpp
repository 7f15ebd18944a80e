/// \file memlab_report_test.cpp
/// \brief Report-level tests for the memlab families: the --jobs
/// byte-identity contract of the cell harness, coverage of the machine
/// filter, the rendered table/chart shape, and the journal + store +
/// shard --> merge composition (merged artifacts byte-identical to the
/// uninterrupted single-process reference).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "faults/fault_plan.hpp"
#include "machines/registry.hpp"
#include "report/memlab_report.hpp"
#include "report/tables.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "../shard/shard_test_util.hpp"

namespace nodebench::report {
namespace {

using shardtest::Bytes;
using shardtest::ScratchDir;

const std::vector<std::string> kSmallSet = {"Eagle", "Frontier"};

TableOptions smallOptions(int jobs) {
  TableOptions opt;
  opt.binaryRuns = 3;
  opt.jobs = jobs;
  opt.machines = &kSmallSet;
  return opt;
}

TEST(MemlabDeterminism, SweepIdenticalAcrossWorkerCounts) {
  const auto seq = computeSweep(smallOptions(1));
  const auto par = computeSweep(smallOptions(4));
  EXPECT_EQ(renderSweep(seq).renderAscii(), renderSweep(par).renderAscii());
  EXPECT_EQ(renderSweepChart(seq), renderSweepChart(par));
  EXPECT_FALSE(renderSweep(seq).renderAscii().empty());
  EXPECT_FALSE(renderSweepChart(seq).empty());
}

TEST(MemlabDeterminism, ChaseIdenticalAcrossWorkerCounts) {
  const auto seq = computeChase(smallOptions(1));
  const auto par = computeChase(smallOptions(4));
  EXPECT_EQ(renderChaseNs(seq).renderAscii(),
            renderChaseNs(par).renderAscii());
  EXPECT_EQ(renderChaseClk(seq).renderAscii(),
            renderChaseClk(par).renderAscii());
  EXPECT_EQ(renderChaseChart(seq), renderChaseChart(par));
  EXPECT_FALSE(renderChaseNs(seq).renderAscii().empty());
  EXPECT_FALSE(renderChaseChart(seq).empty());
}

TEST(MemlabReport, CoversTheMachineFilterInRegistryOrder) {
  const auto sweep = computeSweep(smallOptions(4));
  ASSERT_EQ(sweep.size(), 2u);
  // Registry order, not filter order: Frontier (rank 1) precedes Eagle.
  EXPECT_EQ(sweep[0].machine->info.name, "Frontier");
  EXPECT_EQ(sweep[1].machine->info.name, "Eagle");
  EXPECT_EQ(sweep[0].points.size(), memlab::sweepGrid({}).size());

  TableOptions all;
  all.binaryRuns = 2;
  all.jobs = 8;
  const auto chase = computeChase(all);
  EXPECT_EQ(chase.size(), machines::allMachines().size());
}

TEST(MemlabReport, SweepShowsTheCacheKnee) {
  const auto rows = computeSweep(smallOptions(4));
  for (const SweepRow& row : rows) {
    // The smallest (cache-resident) point must beat the largest
    // (DRAM-resident) point: the knee the family exists to expose.
    EXPECT_GT(row.points.front().bandwidthGBps.mean,
              1.2 * row.points.back().bandwidthGBps.mean)
        << row.machine->info.name;
  }
}

TEST(MemlabReport, ChaseLaddersAreMonotoneInTheMean) {
  const auto rows = computeChase(smallOptions(4));
  for (const ChaseRow& row : rows) {
    // Run-to-run noise is a few percent; the ladder spans an order of
    // magnitude, so means should still climb monotonically at the
    // resolution of adjacent octaves two levels apart.
    const auto& pts = row.points;
    EXPECT_LT(pts.front().nsPerAccess.mean, pts.back().nsPerAccess.mean)
        << row.machine->info.name;
    EXPECT_LT(pts.front().clkPerOp.mean, pts.back().clkPerOp.mean)
        << row.machine->info.name;
  }
}

TEST(MemlabReport, FailedPointsRenderNaAndLeaveTheChart) {
  // Frontier is the first row, whose points give the chart its x axis.
  const faults::FaultPlan plan = faults::FaultPlan::fromJson(
      R"({"seed": 7, "faults": [{"type": "flaky-cell", "machine": "Frontier",
          "rate": 0.9}]})");
  TableOptions opt = smallOptions(4);
  opt.faults = &plan;
  std::vector<CellIncident> sweepIncidents;
  std::vector<CellIncident> chaseIncidents;
  const auto sweep = computeSweep(opt, &sweepIncidents);
  const auto chase = computeChase(opt, &chaseIncidents);
  ASSERT_EQ(sweep.front().machine->info.name, "Frontier");
  ASSERT_EQ(chase.front().machine->info.name, "Frontier");

  // Column 1 is Frontier; a point renders "n/a" exactly when its cell
  // failed, and at least one did.
  const auto expectNaExactlyWhereFailed =
      [](const Table& t, const std::vector<CellIncident>& incidents,
         const auto& points, std::string (*cellName)(ByteCount)) {
        std::size_t failed = 0;
        for (std::size_t j = 0; j < points.size(); ++j) {
          const std::string cell = cellName(points[j].workingSet);
          const bool pointFailed = std::any_of(
              incidents.begin(), incidents.end(), [&](const CellIncident& i) {
                return i.failed && i.machine == "Frontier" && i.cell == cell;
              });
          failed += pointFailed ? 1 : 0;
          EXPECT_EQ(t.cell(j, 1) == "n/a", pointFailed) << cell;
        }
        EXPECT_EQ(failed, static_cast<std::size_t>(std::count_if(
                              incidents.begin(), incidents.end(),
                              [](const CellIncident& i) { return i.failed; })));
        EXPECT_GT(failed, 0u);
      };
  std::string sweepChart;
  std::string chaseChart;
  ASSERT_NO_THROW({
    expectNaExactlyWhereFailed(renderSweep(sweep, &sweepIncidents),
                               sweepIncidents, sweep.front().points,
                               sweepCellName);
    expectNaExactlyWhereFailed(renderChaseNs(chase, &chaseIncidents),
                               chaseIncidents, chase.front().points,
                               chaseCellName);
    expectNaExactlyWhereFailed(renderChaseClk(chase, &chaseIncidents),
                               chaseIncidents, chase.front().points,
                               chaseCellName);
    sweepChart = renderSweepChart(sweep);
    chaseChart = renderChaseChart(chase);
  });
  // A machine with a failed point has no curve; the other one keeps its.
  for (const std::string& chart : {sweepChart, chaseChart}) {
    EXPECT_EQ(chart.find("Frontier"), std::string::npos);
    EXPECT_NE(chart.find("Eagle"), std::string::npos);
  }
}

TEST(MemlabReport, CellNamesAreStableIdentifiers) {
  // Journals, fault plans, shard manifests and stores all key on these;
  // changing them orphans every recorded campaign.
  EXPECT_EQ(sweepCellName(ByteCount::kib(48)), "ws 49152");
  EXPECT_EQ(chaseCellName(ByteCount::kib(4)), "chase 4096");
}

/// One in-process shard worker over both memlab families.
void runMemlabShard(const std::string& journalBase,
                    const std::string& storeBase,
                    const campaign::ShardSpec& spec, int jobs) {
  TableOptions opt = smallOptions(jobs);
  campaign::ShardPlan plan(spec);
  opt.shard = &plan;
  const campaign::CampaignConfig cfg = campaignConfig(opt);
  const auto journal =
      campaign::Journal::create(campaign::shardPath(journalBase, spec), cfg);
  const auto store =
      stats::ResultStore::create(campaign::shardPath(storeBase, spec), cfg);
  opt.journal = journal.get();
  opt.store = store.get();
  const auto sweep = computeSweep(opt);
  const auto chase = computeChase(opt);
  // A worker renders its slice with the other slices' points unmeasured:
  // every row still carries its grid size, and no chart throws.
  std::string sweepTable;
  std::string chaseTable;
  EXPECT_NO_THROW({
    sweepTable = renderSweep(sweep).renderAscii();
    chaseTable = renderChaseNs(chase).renderAscii();
    (void)renderChaseClk(chase);
    (void)renderSweepChart(sweep);
    (void)renderChaseChart(chase);
  });
  EXPECT_NE(sweepTable.find("48 KiB"), std::string::npos);
  EXPECT_NE(chaseTable.find("4 KiB"), std::string::npos);
}

TEST(MemlabHarness, JournalStoreShardMergeRoundTrip) {
  ScratchDir dir("nb_memlab_shard");

  // Reference: uninterrupted single-process --jobs 1 run of both
  // families with journal + store attached.
  TableOptions ref = smallOptions(1);
  const campaign::CampaignConfig cfg = campaignConfig(ref);
  {
    const auto journal =
        campaign::Journal::create(dir.path("ref.journal"), cfg);
    const auto store = stats::ResultStore::create(dir.path("ref.store"), cfg);
    ref.journal = journal.get();
    ref.store = store.get();
    (void)computeSweep(ref);
    (void)computeChase(ref);
  }
  const Bytes refJournal = shardtest::readFileBytes(dir.path("ref.journal"));
  const Bytes refStore = shardtest::readFileBytes(dir.path("ref.store"));
  ASSERT_FALSE(refJournal.empty());
  ASSERT_FALSE(refStore.empty());

  // Resume replays the journal instead of re-measuring, byte-stable.
  {
    const auto journal = campaign::Journal::resume(dir.path("ref.journal"), cfg);
    TableOptions resumed = smallOptions(1);
    resumed.journal = journal.get();
    const auto sweep = computeSweep(resumed);
    const auto direct = computeSweep(smallOptions(1));
    EXPECT_EQ(renderSweep(sweep).renderAscii(),
              renderSweep(direct).renderAscii());
  }
  EXPECT_TRUE(shardtest::readFileBytes(dir.path("ref.journal")) == refJournal)
      << "resume must not grow a complete journal";

  // Sharded workers (counts crossing the uneven-partition edge) merge to
  // the reference bytes — the proof `nodebench merge` understands the
  // "sweep"/"chase" grids.
  for (const std::uint32_t count : {2u, 3u}) {
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE(std::to_string(count) + " shards, jobs " +
                   std::to_string(jobs));
      const std::string base = dir.path("n" + std::to_string(count) + "-j" +
                                        std::to_string(jobs));
      for (std::uint32_t i = 0; i < count; ++i) {
        runMemlabShard(base + ".journal", base + ".store", {i, count}, jobs);
      }
      const campaign::MergedCampaign merged = campaign::mergeShardJournals(
          shardtest::collectShardJournals(base + ".journal", count));
      EXPECT_TRUE(merged.journalBytes == refJournal)
          << "merged journal differs (" << merged.journalBytes.size()
          << " vs " << refJournal.size() << " bytes)";

      std::vector<stats::ShardStoreInput> stores;
      for (std::uint32_t i = 0; i < count; ++i) {
        stores.push_back(stats::loadShardStoreInput(
            campaign::shardPath(base + ".store", {i, count})));
      }
      const Bytes mergedStore = stats::mergeShardStores(stores, merged);
      EXPECT_TRUE(mergedStore == refStore)
          << "merged store differs (" << mergedStore.size() << " vs "
          << refStore.size() << " bytes)";
    }
  }
}

}  // namespace
}  // namespace nodebench::report
