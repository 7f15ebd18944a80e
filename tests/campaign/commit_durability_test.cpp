/// \file commit_durability_test.cpp
/// \brief The group-commit contract, in process: every cell a commit
/// acknowledged survives the loss of any byte written after it, and a
/// cell cut off between its store records is completed on resume.
///
/// Killing a process leaves the page cache intact, so a kill never loses
/// an appended frame. A power loss can: it keeps each file only up to
/// some point after that file's last commit. These tests play that loss
/// themselves by cutting the journal and the store, each on its own, at
/// every frame boundary and mid-frame past the last commit, then resume
/// and compare with an uninterrupted run.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "report/tables.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "trace/trace.hpp"

namespace nodebench::report {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;

Bytes readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void writeBytes(const std::string& path, const Bytes& bytes,
                std::size_t length) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(length));
}

/// Per-process scratch directory (ctest runs test binaries in parallel).
class Scratch {
 public:
  Scratch()
      : dir_(fs::temp_directory_path() /
             ("nodebench_commit_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~Scratch() { fs::remove_all(dir_); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

/// [begin, end) of every record frame after a header of `headerSize`.
struct Frame {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<Frame> recordFrames(const Bytes& bytes, std::size_t headerSize) {
  std::vector<Frame> frames;
  for (std::size_t pos = headerSize; pos < bytes.size();) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);  // LE host
    frames.push_back({pos, pos + 8 + len});
    pos = frames.back().end;
  }
  return frames;
}

/// Where a power loss may leave a file whose last commit ended at
/// `committed`: that commit's end, every later frame boundary, and the
/// middle of every later frame.
std::vector<std::size_t> lossPoints(const Bytes& bytes, std::size_t headerSize,
                                    std::size_t committed) {
  std::vector<std::size_t> points{committed};
  for (const Frame& f : recordFrames(bytes, headerSize)) {
    if (f.begin >= committed) {
      points.push_back(f.begin + (f.end - f.begin) / 2);
      points.push_back(f.end);
    }
  }
  return points;
}

std::string renderedTable4(const TableOptions& opt) {
  std::vector<CellIncident> incidents;
  const auto rows = computeTable4(opt, &incidents);
  return renderTable4(rows, &incidents).renderAscii();
}

/// (machine, cell, quantity) -> samples: a store's records by key.
std::map<std::string, std::vector<double>> storeSamples(
    const std::string& path) {
  std::map<std::string, std::vector<double>> out;
  for (stats::SampleRecord& r : stats::ResultStore::load(path).records) {
    out.emplace(stats::sampleKey(r), std::move(r.samples));
  }
  return out;
}

bool bitExact(const std::map<std::string, std::vector<double>>& a,
              const std::map<std::string, std::vector<double>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [key, samples] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second.size() != samples.size() ||
        std::memcmp(it->second.data(), samples.data(),
                    samples.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TableOptions smallCampaign() {
  TableOptions opt;
  opt.binaryRuns = 3;
  opt.jobs = 1;
  return opt;
}

TEST(CommitDurability, CommittedCellsSurviveLosingAnyUncommittedByte) {
  const Scratch scratch;
  const TableOptions base = smallCampaign();
  const campaign::CampaignConfig cfg = campaignConfig(base);
  const std::string plain = renderedTable4(base);

  // The campaign commits after the first four machines and then measures
  // the fifth without committing: its cells are what a power loss takes.
  const std::string jp = scratch.path("j");
  const std::string sp = scratch.path("s");
  const std::vector<std::string> firstFour = {"Trinity", "Theta", "Sawtooth",
                                              "Eagle"};
  std::set<std::string> committedCells;
  std::size_t committedJ = 0;
  std::size_t committedS = 0;
  {
    auto journal = campaign::Journal::create(jp, cfg);
    auto store = stats::ResultStore::create(sp, cfg);
    TableOptions opt = base;
    opt.journal = journal.get();
    opt.store = store.get();
    opt.machines = &firstFour;
    (void)renderedTable4(opt);
    journal->commit();
    store->commit();
    committedJ = fs::file_size(jp);
    committedS = fs::file_size(sp);
    for (const campaign::CellRecord& r :
         campaign::Journal::decode(readBytes(jp)).records) {
      committedCells.insert(r.machine + "/" + r.cell);
    }
    opt.machines = nullptr;
    EXPECT_EQ(renderedTable4(opt), plain);
  }
  ASSERT_EQ(committedCells.size(), 12u);
  const Bytes fullJ = readBytes(jp);
  const Bytes fullS = readBytes(sp);
  const std::map<std::string, std::vector<double>> reference =
      storeSamples(sp);
  ASSERT_EQ(reference.size(), 20u);  // host bandwidth stores two records
  const std::size_t journalHeader =
      campaign::Journal::encodeHeader(cfg).size();
  const std::size_t storeHeader = stats::ResultStore::encodeHeader(cfg).size();

  for (const std::size_t cutJ : lossPoints(fullJ, journalHeader, committedJ)) {
    for (const std::size_t cutS : lossPoints(fullS, storeHeader, committedS)) {
      SCOPED_TRACE("journal cut at " + std::to_string(cutJ) + " of " +
                   std::to_string(fullJ.size()) + ", store cut at " +
                   std::to_string(cutS) + " of " +
                   std::to_string(fullS.size()));
      writeBytes(jp, fullJ, cutJ);
      writeBytes(sp, fullS, cutS);
      std::set<std::string> replayed;
      {
        auto journal = campaign::Journal::resume(jp, cfg);
        auto store = stats::ResultStore::attach(sp, cfg, /*resume=*/true);
        TableOptions opt = base;
        opt.journal = journal.get();
        opt.store = store.get();
        std::string text;
        {
          // The trace counts each replay in its cell's scope.
          const trace::Session session;
          text = renderedTable4(opt);
          for (const trace::TraceBuffer* buffer : session.ordered()) {
            if (buffer->counters().count("campaign.records replayed") != 0) {
              replayed.insert(buffer->label());
            }
          }
        }
        EXPECT_EQ(text, plain);
        store->commit();
        journal->commit();
      }
      for (const std::string& cell : committedCells) {
        EXPECT_EQ(replayed.count(cell), 1u) << cell << " was re-measured";
      }
      EXPECT_TRUE(bitExact(storeSamples(sp), reference));
      EXPECT_EQ(campaign::Journal::decode(readBytes(jp)).records.size(), 15u);
    }
  }
}

/// Index of the first record of `machine`/`cell` in a journal image.
std::size_t journalRecordIndex(const Bytes& journal, const std::string& machine,
                               const std::string& cell) {
  const auto records = campaign::Journal::decode(journal).records;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].machine == machine && records[i].cell == cell) {
      return i;
    }
  }
  ADD_FAILURE() << "no journal record for " << machine << "/" << cell;
  return 0;
}

/// Index of the record of `machine`/`cell`/`quantity` in a store image,
/// or records.size() when absent.
std::size_t storeRecordIndex(const Bytes& store, const std::string& machine,
                             const std::string& cell,
                             const std::string& quantity) {
  const auto records = stats::ResultStore::decode(store).records;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].machine == machine && records[i].cell == cell &&
        records[i].quantity == quantity) {
      return i;
    }
  }
  return records.size();
}

/// Leaves Theta's host bandwidth cell half stored in the files at `jp`
/// and `sp` (whose images are `j` and `s`): the store is cut just before
/// the cell's "full-team bandwidth" record, and the journal just before
/// the cell's record, or just after it when `keepJournalRecord`.
void cutThetaHostBandwidth(const std::string& jp, const Bytes& j,
                           const std::string& sp, const Bytes& s,
                           const campaign::CampaignConfig& cfg,
                           bool keepJournalRecord) {
  const auto jFrames =
      recordFrames(j, campaign::Journal::encodeHeader(cfg).size());
  const auto sFrames =
      recordFrames(s, stats::ResultStore::encodeHeader(cfg).size());
  const Frame jf = jFrames[journalRecordIndex(j, "Theta", "host bandwidth")];
  const std::size_t si =
      storeRecordIndex(s, "Theta", "host bandwidth", "full-team bandwidth");
  ASSERT_LT(si, sFrames.size());
  ASSERT_LT(storeRecordIndex(s, "Theta", "host bandwidth",
                             "single-thread bandwidth"),
            si);
  writeBytes(jp, j, keepJournalRecord ? jf.end : jf.begin);
  writeBytes(sp, s, sFrames[si].begin);
}

void expectHalfStoredCellCompleted(bool keepJournalRecord) {
  const Scratch scratch;
  const TableOptions base = smallCampaign();
  const campaign::CampaignConfig cfg = campaignConfig(base);
  const std::string plain = renderedTable4(base);

  // The uninterrupted --jobs 1 reference.
  const std::string refJ = scratch.path("ref.j");
  const std::string refS = scratch.path("ref.s");
  {
    auto journal = campaign::Journal::create(refJ, cfg);
    auto store = stats::ResultStore::create(refS, cfg);
    TableOptions opt = base;
    opt.journal = journal.get();
    opt.store = store.get();
    EXPECT_EQ(renderedTable4(opt), plain);
  }
  const Bytes j = readBytes(refJ);
  const Bytes s = readBytes(refS);

  // One process: resume the half-stored files at --jobs 1. The cell is
  // measured again with a capture, only the missing record is appended,
  // and both files end byte-identical to the reference.
  const std::string jp = scratch.path("cut.j");
  const std::string sp = scratch.path("cut.s");
  cutThetaHostBandwidth(jp, j, sp, s, cfg, keepJournalRecord);
  ASSERT_FALSE(stats::ResultStore::attach(sp, cfg, true)
                   ->containsCell("Theta", "host bandwidth", 2));
  {
    auto journal = campaign::Journal::resume(jp, cfg);
    auto store = stats::ResultStore::attach(sp, cfg, /*resume=*/true);
    TableOptions opt = base;
    opt.journal = journal.get();
    opt.store = store.get();
    EXPECT_EQ(renderedTable4(opt), plain);
    EXPECT_TRUE(store->containsCell("Theta", "host bandwidth", 2));
  }
  EXPECT_EQ(readBytes(sp), s);
  EXPECT_EQ(readBytes(jp), j);

  // Two shards: the shard measuring Theta's host bandwidth is left half
  // stored and resumed; the merge equals the --jobs 1 files.
  const std::string jBase = scratch.path("shard.j");
  const std::string sBase = scratch.path("shard.s");
  std::vector<campaign::ShardInput> journals;
  std::vector<stats::ShardStoreInput> stores;
  bool cut = false;
  for (std::uint32_t i = 0; i < 2; ++i) {
    const campaign::ShardSpec spec{i, 2};
    campaign::ShardPlan plan(spec);
    TableOptions opt = base;
    opt.shard = &plan;
    const campaign::CampaignConfig shardCfg = campaignConfig(opt);
    const std::string sj = campaign::shardPath(jBase, spec);
    const std::string ss = campaign::shardPath(sBase, spec);
    {
      auto journal = campaign::Journal::create(sj, shardCfg);
      auto store = stats::ResultStore::create(ss, shardCfg);
      opt.journal = journal.get();
      opt.store = store.get();
      (void)computeTable4(opt);
    }
    const Bytes shardS = readBytes(ss);
    if (storeRecordIndex(shardS, "Theta", "host bandwidth",
                         "full-team bandwidth") <
        stats::ResultStore::decode(shardS).records.size()) {
      cut = true;
      cutThetaHostBandwidth(sj, readBytes(sj), ss, shardS, shardCfg,
                            keepJournalRecord);
      auto journal = campaign::Journal::resume(sj, shardCfg);
      auto store = stats::ResultStore::attach(ss, shardCfg, /*resume=*/true);
      opt.journal = journal.get();
      opt.store = store.get();
      (void)computeTable4(opt);
    }
    journals.push_back(campaign::readShardInput(sj));
    stores.push_back(stats::loadShardStoreInput(ss));
  }
  ASSERT_TRUE(cut);
  const campaign::MergedCampaign merged =
      campaign::mergeShardJournals(journals);
  EXPECT_EQ(merged.journalBytes, j);
  EXPECT_EQ(stats::mergeShardStores(stores, merged), s);
}

TEST(HalfStoredCell, IsCompletedOnResumeWithoutItsJournalRecord) {
  expectHalfStoredCellCompleted(/*keepJournalRecord=*/false);
}

TEST(HalfStoredCell, IsCompletedOnResumeWithItsJournalRecord) {
  expectHalfStoredCellCompleted(/*keepJournalRecord=*/true);
}

}  // namespace
}  // namespace nodebench::report
