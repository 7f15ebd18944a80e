/// \file store_test.cpp
/// \brief Results-store unit tests: encode/decode round-trips, the strict
/// (all-or-nothing) corruption policy of a finished store, the torn-tail
/// cut of a resumed one, the create/append/attach lifecycle, and the
/// resume fingerprint check.

#include "stats/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace nodebench::stats {
namespace {

using Bytes = std::vector<std::uint8_t>;

campaign::CampaignConfig testConfig() {
  campaign::CampaignConfig cfg;
  cfg.registryHash = 0x1122334455667788ull;
  cfg.faultPlanHash = 0xdeadbeefcafef00dull;
  cfg.seed = 42;
  cfg.runs = 100;
  cfg.jobs = 8;
  cfg.cellRetries = 2;
  cfg.cpuArrayBytes = 128ull << 20;
  cfg.gpuArrayBytes = 1ull << 30;
  cfg.mpiMessageSize = 8;
  return cfg;
}

SampleRecord testRecord(const std::string& machine = "Frontier",
                        const std::string& cell = "device bandwidth",
                        const std::string& quantity = "bandwidth") {
  SampleRecord rec;
  rec.machine = machine;
  rec.cell = cell;
  rec.quantity = quantity;
  rec.unit = "GB/s";
  rec.better = Better::Higher;
  rec.samples = {1336.2, 1337.5, 1335.9, 1336.8};
  Summary s;
  s.count = rec.samples.size();
  s.mean = 1336.6;
  s.stddev = 0.7;
  s.min = 1335.9;
  s.max = 1337.5;
  rec.summary = s;
  return rec;
}

Bytes encodeTestStore() {
  Bytes bytes = ResultStore::encodeHeader(testConfig());
  const Bytes frame = ResultStore::encodeRecord(testRecord());
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  return bytes;
}

std::string tempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void writeBytes(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(StoreCodec, RoundTripsConfigAndRecord) {
  const StoreContents decoded = ResultStore::decode(encodeTestStore());
  const campaign::CampaignConfig cfg = testConfig();
  EXPECT_EQ(decoded.config.registryHash, cfg.registryHash);
  EXPECT_EQ(decoded.config.faultPlanHash, cfg.faultPlanHash);
  EXPECT_EQ(decoded.config.seed, cfg.seed);
  EXPECT_EQ(decoded.config.runs, cfg.runs);
  EXPECT_EQ(decoded.config.jobs, cfg.jobs);
  ASSERT_EQ(decoded.records.size(), 1u);
  const SampleRecord& rec = decoded.records[0];
  const SampleRecord expected = testRecord();
  EXPECT_EQ(rec.machine, expected.machine);
  EXPECT_EQ(rec.cell, expected.cell);
  EXPECT_EQ(rec.quantity, expected.quantity);
  EXPECT_EQ(rec.unit, expected.unit);
  EXPECT_EQ(rec.better, expected.better);
  EXPECT_EQ(rec.summary.count, expected.summary.count);
  EXPECT_EQ(rec.summary.mean, expected.summary.mean);
  EXPECT_EQ(rec.samples, expected.samples);  // bit-exact doubles
}

TEST(StoreCodec, EncodeRejectsSampleCountMismatch) {
  SampleRecord rec = testRecord();
  rec.summary.count = rec.samples.size() + 1;
  EXPECT_THROW((void)ResultStore::encodeRecord(rec), Error);
}

TEST(StoreCodec, RejectsBadMagic) {
  Bytes bytes = encodeTestStore();
  bytes[0] ^= 0xff;
  EXPECT_THROW((void)ResultStore::decode(bytes), StoreCorruptError);
}

TEST(StoreCodec, RejectsUnsupportedVersion) {
  Bytes bytes = encodeTestStore();
  bytes[4] = 0xfe;  // u32 LE schema version lives right after the magic
  EXPECT_THROW((void)ResultStore::decode(bytes), StoreCorruptError);
}

TEST(StoreCodec, RejectsEveryTruncation) {
  // Unlike the journal's torn-tail tolerance, a store must reject ANY
  // truncated suffix — it is a finished artifact, not a crash log. The
  // single exception is a cut exactly at the header/record boundary:
  // a record-less store is legal (it is what create() writes).
  const Bytes bytes = encodeTestStore();
  const std::size_t headerSize =
      ResultStore::encodeHeader(testConfig()).size();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    if (len == headerSize) {
      EXPECT_TRUE(
          ResultStore::decode(std::span(bytes.data(), len)).records.empty());
      continue;
    }
    EXPECT_THROW(
        (void)ResultStore::decode(std::span(bytes.data(), len)),
        StoreCorruptError)
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(StoreCodec, RejectsEverySingleBitFlipInRecordFrame) {
  const Bytes clean = encodeTestStore();
  const std::size_t headerSize =
      ResultStore::encodeHeader(testConfig()).size();
  for (std::size_t i = headerSize; i < clean.size(); ++i) {
    Bytes bytes = clean;
    bytes[i] ^= 0x01;
    // Either the CRC catches it, or (for flips inside the length field)
    // the frame geometry does. Nothing may decode successfully.
    EXPECT_THROW((void)ResultStore::decode(bytes), StoreCorruptError)
        << "bit flip at offset " << i << " was accepted";
  }
}

TEST(StoreCodec, RejectsTrailingGarbage) {
  Bytes bytes = encodeTestStore();
  bytes.push_back(0x00);
  EXPECT_THROW((void)ResultStore::decode(bytes), StoreCorruptError);
}

TEST(DescribeStoreMismatch, IgnoresJobsNamesEverythingElse) {
  const campaign::CampaignConfig recorded = testConfig();
  campaign::CampaignConfig current = recorded;
  EXPECT_EQ(describeStoreMismatch(recorded, current), "");
  current.jobs = 1;  // informational only: parallelism never changes data
  EXPECT_EQ(describeStoreMismatch(recorded, current), "");
  current.runs = 50;
  const std::string msg = describeStoreMismatch(recorded, current);
  EXPECT_NE(msg.find("--runs"), std::string::npos) << msg;
  EXPECT_NE(msg.find("100"), std::string::npos) << msg;
  EXPECT_NE(msg.find("50"), std::string::npos) << msg;
}

TEST(ResultStoreFile, CreateAppendLoadLifecycle) {
  const std::string path = tempPath("store_lifecycle.bin");
  std::filesystem::remove(path);
  {
    auto store = ResultStore::create(path, testConfig());
    EXPECT_FALSE(store->containsCell("Frontier", "device bandwidth", 1));
    store->append(testRecord());
    EXPECT_TRUE(store->containsCell("Frontier", "device bandwidth", 1));
    store->append(testRecord());  // idempotent: same (machine, cell, qty)
    store->append(testRecord("Frontier", "host bandwidth", "single"));
    EXPECT_EQ(store->recordCount(), 2u);
    // A two-record cell holding one record is not stored yet.
    EXPECT_FALSE(store->containsCell("Frontier", "host bandwidth", 2));
    store->appendCell({testRecord("Frontier", "host bandwidth", "single"),
                       testRecord("Frontier", "host bandwidth", "full")});
    EXPECT_TRUE(store->containsCell("Frontier", "host bandwidth", 2));
    EXPECT_EQ(store->recordCount(), 3u);
    store->commit();
  }
  const StoreContents contents = ResultStore::load(path);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0].cell, "device bandwidth");
  EXPECT_EQ(contents.records[1].quantity, "single");
  EXPECT_EQ(contents.records[2].quantity, "full");
}

TEST(ResultStoreFile, CreateRefusesExistingFile) {
  const std::string path = tempPath("store_exists.bin");
  std::filesystem::remove(path);
  { auto store = ResultStore::create(path, testConfig()); }
  EXPECT_THROW((void)ResultStore::create(path, testConfig()), Error);
}

TEST(ResultStoreFile, AttachResumeRebuildsKeysAndAppends) {
  const std::string path = tempPath("store_attach.bin");
  std::filesystem::remove(path);
  {
    auto store = ResultStore::attach(path, testConfig(), /*resume=*/false);
    store->append(testRecord());
  }
  {
    auto store = ResultStore::attach(path, testConfig(), /*resume=*/true);
    EXPECT_TRUE(store->containsCell("Frontier", "device bandwidth", 1));
    EXPECT_EQ(store->recordCount(), 1u);
    store->append(testRecord("Tioga", "device bandwidth", "bandwidth"));
  }
  EXPECT_EQ(ResultStore::load(path).records.size(), 2u);
}

TEST(ResultStoreFile, AttachResumeCreatesMissingFile) {
  const std::string path = tempPath("store_attach_fresh.bin");
  std::filesystem::remove(path);
  auto store = ResultStore::attach(path, testConfig(), /*resume=*/true);
  EXPECT_EQ(store->recordCount(), 0u);
}

TEST(ResultStoreFile, AttachResumeRejectsConfigMismatchNamingParameter) {
  const std::string path = tempPath("store_attach_mismatch.bin");
  std::filesystem::remove(path);
  { auto store = ResultStore::attach(path, testConfig(), /*resume=*/false); }
  campaign::CampaignConfig other = testConfig();
  other.runs = 25;
  try {
    (void)ResultStore::attach(path, other, /*resume=*/true);
    FAIL() << "mismatched --runs accepted";
  } catch (const StoreConfigMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("--runs"), std::string::npos)
        << e.what();
  }
}

TEST(ResultStoreFile, AttachResumeCutsATornTailAtEveryByte) {
  // A resumed store is a crash log: a writer killed mid-write, or a power
  // loss after its last commit, leaves a torn tail that resume cuts with
  // the journal's warning. Every cut past the header must reopen to the
  // longest valid record prefix, rewritten on disk as a strict store.
  Bytes bytes = ResultStore::encodeHeader(testConfig());
  const std::size_t headerSize = bytes.size();
  std::vector<std::size_t> recordEnds;
  for (const char* cell : {"device bandwidth", "host latency", "d2d"}) {
    const Bytes frame =
        ResultStore::encodeRecord(testRecord("Frontier", cell, "q"));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    recordEnds.push_back(bytes.size());
  }
  const std::string path = tempPath("store_torn_sweep.bin");
  for (std::size_t cut = headerSize; cut <= bytes.size(); ++cut) {
    writeBytes(path, std::span(bytes.data(), cut));
    std::size_t fullRecords = 0;
    std::size_t prefixEnd = headerSize;
    for (const std::size_t end : recordEnds) {
      if (end <= cut) {
        ++fullRecords;
        prefixEnd = end;
      }
    }
    std::unique_ptr<ResultStore> store;
    ASSERT_NO_THROW(store = ResultStore::attach(path, testConfig(), true))
        << "cut at byte " << cut;
    EXPECT_EQ(store->recordCount(), fullRecords) << "cut at byte " << cut;
    EXPECT_EQ(store->warnings().empty(), cut == prefixEnd)
        << "cut at byte " << cut;
    if (!store->warnings().empty()) {
      EXPECT_NE(store->warnings()[0].find("torn tail truncated"),
                std::string::npos)
          << store->warnings()[0];
    }
    store.reset();
    EXPECT_EQ(std::filesystem::file_size(path), prefixEnd)
        << "cut at byte " << cut;
    EXPECT_EQ(ResultStore::load(path).records.size(), fullRecords)
        << "cut at byte " << cut;
  }
}

}  // namespace
}  // namespace nodebench::stats
