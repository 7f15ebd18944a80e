/// \file io_fault_test.cpp
/// \brief I/O fault-injection tests for the durable-write layer
/// (campaign/io.hpp): ENOSPC/EIO on write, partial-write-then-fail, and
/// fsync failure against both the campaign journal and the NBRS results
/// store. The properties under test: a failed append (a) surfaces a
/// named error ("journal ... No space left on device"), (b) never leaves
/// a torn frame on disk — the file reopens cleanly with exactly the
/// records appended before the fault — and (c) the handle stays usable:
/// the next append succeeds. Appends do not fsync (group commit), so the
/// fsync fault is injected into a commit, which rolls the file back to
/// the previous commit.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/io.hpp"
#include "campaign/journal.hpp"
#include "core/error.hpp"
#include "stats/store.hpp"

namespace nodebench::campaign {
namespace {

namespace fs = std::filesystem;

CampaignConfig testConfig() {
  CampaignConfig cfg;
  cfg.registryHash = 0x1111222233334444ull;
  cfg.faultPlanHash = 0;
  cfg.seed = 7;
  cfg.runs = 5;
  cfg.jobs = 1;
  cfg.cellRetries = 2;
  cfg.cpuArrayBytes = 1 << 20;
  cfg.gpuArrayBytes = 1 << 20;
  cfg.mpiMessageSize = 8;
  return cfg;
}

CellRecord cell(const std::string& machine, int n) {
  CellRecord r;
  r.machine = machine;
  r.cell = "cell-" + std::to_string(n);
  r.attempts = 1;
  r.payload = {0xAB, 0xCD, static_cast<std::uint8_t>(n)};
  return r;
}

stats::SampleRecord sample(const std::string& machine, int n) {
  stats::SampleRecord r;
  r.machine = machine;
  r.cell = "cell-" + std::to_string(n);
  r.quantity = "latency";
  r.unit = "us";
  r.better = stats::Better::Lower;
  r.samples = {1.0, 2.0, 3.0};
  r.summary.count = 3;
  r.summary.mean = 2.0;
  r.summary.min = 1.0;
  r.summary.max = 3.0;
  return r;
}

class IoFaultTest : public ::testing::Test {
 protected:
  std::string scratch(const std::string& leaf) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return (fs::temp_directory_path() /
            ("nbio-" + std::string(info->name()) + "-" + leaf))
        .string();
  }
  void TearDown() override { io::clearIoFailure(); }
};

TEST_F(IoFaultTest, JournalAppendEnospcRollsBackAndNamesTheSubsystem) {
  const std::string path = scratch("a.journal");
  fs::remove(path);
  auto journal = Journal::create(path, testConfig());
  journal->append(cell("Theta", 1));
  const auto sizeBefore = fs::file_size(path);

  io::setIoFailure(io::IoOp::Write, 0, ENOSPC);
  try {
    journal->append(cell("Theta", 2));
    FAIL() << "append should have failed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("journal"), std::string::npos) << what;
    EXPECT_NE(what.find("No space left"), std::string::npos) << what;
  }
  EXPECT_EQ(io::ioFailuresFired(), 1);
  // Rollback: the failed frame left no bytes behind.
  EXPECT_EQ(fs::file_size(path), sizeBefore);

  // The handle survives: the next append lands, and a fresh resume sees
  // exactly the successful records with no torn-tail warnings.
  journal->append(cell("Theta", 2));
  journal.reset();
  auto resumed = Journal::resume(path, testConfig());
  EXPECT_TRUE(resumed->warnings().empty());
  EXPECT_EQ(resumed->recordCount(), 2u);
  EXPECT_NE(resumed->find("Theta", "cell-2"), nullptr);
}

TEST_F(IoFaultTest, JournalPartialWriteThenEioRollsBack) {
  const std::string path = scratch("b.journal");
  fs::remove(path);
  auto journal = Journal::create(path, testConfig());
  journal->append(cell("Eagle", 1));
  const auto sizeBefore = fs::file_size(path);

  // The worst case: half the frame reaches the disk, then the device
  // errors. Without rollback this is exactly a torn frame.
  io::setIoFailure(io::IoOp::PartialWrite, 0, EIO);
  EXPECT_THROW(journal->append(cell("Eagle", 2)), Error);
  EXPECT_EQ(io::ioFailuresFired(), 1);
  EXPECT_EQ(fs::file_size(path), sizeBefore);

  journal.reset();
  auto resumed = Journal::resume(path, testConfig());
  EXPECT_TRUE(resumed->warnings().empty());
  EXPECT_EQ(resumed->recordCount(), 1u);
}

TEST_F(IoFaultTest, JournalFsyncFailureRollsBackTheFrame) {
  const std::string path = scratch("c.journal");
  fs::remove(path);
  auto journal = Journal::create(path, testConfig());
  journal->append(cell("Manzano", 1));
  journal->commit();
  const auto committedSize = fs::file_size(path);

  // Appends write without syncing, so the fsync that can fail is the
  // commit's. The frame lands fully but is not durable: the commit must
  // not report success, must name the subsystem, and must roll the file
  // back to what the last successful commit made durable.
  journal->append(cell("Manzano", 2));
  EXPECT_GT(fs::file_size(path), committedSize);
  io::setIoFailure(io::IoOp::Fsync, 0, EIO);
  try {
    journal->commit();
    FAIL() << "commit should have failed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("journal fsync failed"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  EXPECT_EQ(io::ioFailuresFired(), 1);
  EXPECT_EQ(fs::file_size(path), committedSize);

  // A resume decodes exactly the frames committed before the failure.
  journal.reset();
  auto resumed = Journal::resume(path, testConfig());
  EXPECT_TRUE(resumed->warnings().empty());
  EXPECT_EQ(resumed->recordCount(), 1u);
  EXPECT_NE(resumed->find("Manzano", "cell-1"), nullptr);
}

TEST_F(IoFaultTest, AppendCommitsOnceTheCommitWindowHasPassed) {
  const std::string path = scratch("w.journal");
  fs::remove(path);
  const auto start = std::chrono::steady_clock::now();
  auto journal = Journal::create(path, testConfig());
  const auto headerSize = fs::file_size(path);
  io::setIoFailure(io::IoOp::Fsync, 0, EIO);
  journal->append(cell("Theta", 1));
  journal->append(cell("Theta", 2));
  if (std::chrono::steady_clock::now() - start <
      FramedLogFile::kCommitWindow) {
    // Inside the window an append only writes.
    EXPECT_EQ(io::ioFailuresFired(), 0);
  }
  io::setIoFailure(io::IoOp::Fsync, 0, EIO);
  std::this_thread::sleep_for(FramedLogFile::kCommitWindow +
                              std::chrono::milliseconds(10));
  // The first append past the window commits what was written before it
  // writes its own frame; the injected fsync failure surfaces from the
  // append and rolls the file back to the header, the last commit.
  EXPECT_THROW(journal->append(cell("Theta", 3)), Error);
  EXPECT_EQ(io::ioFailuresFired(), 1);
  EXPECT_EQ(fs::file_size(path), headerSize);
}

TEST_F(IoFaultTest, StoreAppendFaultNeverCorruptsTheStrictFormat) {
  const std::string path = scratch("d.store");
  fs::remove(path);
  auto store = stats::ResultStore::create(path, testConfig());
  store->append(sample("Theta", 1));
  const auto sizeBefore = fs::file_size(path);

  // The store decoder is strict (no torn-tail tolerance), so rollback
  // is what keeps a failed append from bricking the whole file.
  io::setIoFailure(io::IoOp::PartialWrite, 0, ENOSPC);
  try {
    store->append(sample("Theta", 2));
    FAIL() << "append should have failed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("store"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(io::ioFailuresFired(), 1);
  EXPECT_EQ(fs::file_size(path), sizeBefore);

  store->append(sample("Theta", 2));
  store.reset();
  const stats::StoreContents contents = stats::ResultStore::load(path);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[1].cell, "cell-2");
}

TEST_F(IoFaultTest, ArmedFaultFiresOnTheNthCall) {
  const std::string path = scratch("e.journal");
  fs::remove(path);
  auto journal = Journal::create(path, testConfig());
  // afterCalls = 1: the first append's write passes, the second fails.
  io::setIoFailure(io::IoOp::Write, 1, ENOSPC);
  journal->append(cell("Theta", 1));
  EXPECT_EQ(io::ioFailuresFired(), 0);
  EXPECT_THROW(journal->append(cell("Theta", 2)), Error);
  EXPECT_EQ(io::ioFailuresFired(), 1);
  // The shim self-disarms after firing once.
  journal->append(cell("Theta", 2));
  EXPECT_EQ(io::ioFailuresFired(), 1);
}

}  // namespace
}  // namespace nodebench::campaign
