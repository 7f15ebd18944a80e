#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "machines/registry.hpp"
#include "report/balance.hpp"
#include "report/export.hpp"

namespace nodebench::report {
namespace {

TEST(Balance, EveryMachineContributesAHostRow) {
  const auto rows = computeBalance();
  int hostRows = 0;
  int deviceRows = 0;
  for (const auto& row : rows) {
    (row.deviceSide ? deviceRows : hostRows) += 1;
    EXPECT_GT(row.peakGflops, 0.0) << row.machine->info.name;
    EXPECT_GT(row.streamGBps, 0.0) << row.machine->info.name;
    EXPECT_GT(row.flopsPerByte(), 0.5) << row.machine->info.name;
  }
  EXPECT_EQ(hostRows, 13);
  EXPECT_EQ(deviceRows, 8);
}

TEST(Balance, DeviceBalancesMatchArchitectureExpectations) {
  const auto rows = computeBalance();
  const auto find = [&](const char* name) {
    for (const auto& row : rows) {
      if (row.deviceSide && row.machine->info.name == name) {
        return row;
      }
    }
    throw Error("missing row");
  };
  // V100: 7.8 TF / ~0.79 TB/s ~ 10; A100: 9.7 / 1.36 ~ 7;
  // MI250X GCD: 23.95 / 1.34 ~ 18.
  EXPECT_NEAR(find("Summit").flopsPerByte(), 9.9, 1.0);
  EXPECT_NEAR(find("Perlmutter").flopsPerByte(), 7.1, 1.0);
  EXPECT_NEAR(find("Frontier").flopsPerByte(), 17.9, 1.5);
  // The balance gap widened from V100-era hosts to MI250X devices.
  EXPECT_GT(find("Frontier").flopsPerByte(),
            find("Perlmutter").flopsPerByte());
}

TEST(Balance, HostStreamMatchesTable4All) {
  // The balance table's host bandwidth is the model's Table-4 "All".
  for (const auto& row : computeBalance()) {
    if (!row.deviceSide && row.machine->info.name == "Eagle") {
      EXPECT_NEAR(row.streamGBps, 208.24, 1e-6);
    }
  }
}

TEST(Balance, RenderedTableHasExpectedShape) {
  const Table t = renderBalance(computeBalance());
  EXPECT_EQ(t.columnCount(), 5u);
  EXPECT_EQ(t.rowCount(), 21u);
  const std::string ascii = t.renderAscii();
  EXPECT_NE(ascii.find("device"), std::string::npos);
  EXPECT_NE(ascii.find("host"), std::string::npos);
}

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nodebench_export_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ExportTest, SingleTableWritesCsvMarkdownAndJson) {
  const auto paths = exportTable(buildTable2(), dir_, "t2");
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "t2.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "t2.md"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "t2.json"));
  std::ifstream csv(dir_ / "t2.csv");
  std::string firstLine;
  std::getline(csv, firstLine);
  EXPECT_EQ(firstLine, "Rank/Name,Location,CPU");
}

TEST_F(ExportTest, ExportAllProducesTenTableTriples) {
  TableOptions opt;
  opt.binaryRuns = 3;  // keep the test fast
  const auto manifest = exportAllTables(dir_, opt);
  EXPECT_EQ(manifest.written.size(), 30u);  // 10 tables x (csv+md+json)
  for (const auto& path : manifest.written) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
  }
  EXPECT_TRUE(
      std::filesystem::exists(dir_ / "table5_gpu_results.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "machine_balance.md"));
}

/// A table small enough to sit in the stream buffer reaches the file only
/// at the final flush; ENOSPC there must still fail the export.
TEST_F(ExportTest, FailedFinalFlushIsAnError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  std::filesystem::create_directories(dir_);
  std::filesystem::create_symlink("/dev/full", dir_ / "t2.csv");
  EXPECT_THROW((void)exportTable(buildTable2(), dir_, "t2"), Error);
}

TEST_F(ExportTest, RejectsEmptyStem) {
  EXPECT_THROW((void)exportTable(buildTable2(), dir_, ""),
               PreconditionError);
}

}  // namespace
}  // namespace nodebench::report
