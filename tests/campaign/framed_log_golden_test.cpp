/// \file framed_log_golden_test.cpp
/// \brief Golden on-disk bytes of the three CRC32-framed logs: the
/// campaign journal (NBCJ), the results store (NBRS) and the supervisor
/// journal (NBSV).
///
/// The identity matrices elsewhere compare bytes that the same encoder
/// wrote on both sides, so a format change applied everywhere would pass
/// them. These tests compare against bytes fixed in the tree instead:
/// checked-in corpus files must decode and re-encode byte for byte, and
/// the header extensions and record shapes no corpus file carries are
/// pinned as hex literals. A failure here means files written by an
/// earlier build no longer read back the same, which needs a schema
/// version bump, not a test update.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "stats/store.hpp"
#include "supervise/journal.hpp"

#ifndef NODEBENCH_FUZZ_CORPUS_DIR
#error "build system must define NODEBENCH_FUZZ_CORPUS_DIR"
#endif

namespace nodebench {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes readCorpusFile(const std::string& relative) {
  const std::filesystem::path path =
      std::filesystem::path(NODEBENCH_FUZZ_CORPUS_DIR) / relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

std::string hexOf(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

void appendTo(Bytes& out, const Bytes& more) {
  out.insert(out.end(), more.begin(), more.end());
}

campaign::CampaignConfig shardedConfig() {
  campaign::CampaignConfig cfg;
  cfg.registryHash = 0x1122334455667788ull;
  cfg.faultPlanHash = 0x99aabbccddeeff00ull;
  cfg.seed = 7;
  cfg.runs = 5;
  cfg.jobs = 2;
  cfg.cellRetries = 2;
  cfg.cpuArrayBytes = 1ull << 28;
  cfg.gpuArrayBytes = 1ull << 30;
  cfg.mpiMessageSize = 8;
  cfg.shardIndex = 1;
  cfg.shardCount = 3;
  return cfg;
}

TEST(FramedLogGolden, JournalCorpusReencodesByteForByte) {
  const Bytes file = readCorpusFile("journal/two_records.bin");
  const campaign::Journal::Decoded decoded = campaign::Journal::decode(file);
  EXPECT_TRUE(decoded.warnings.empty());
  EXPECT_EQ(decoded.validBytes, file.size());
  ASSERT_EQ(decoded.records.size(), 2u);

  Bytes rebuilt = campaign::Journal::encodeHeader(decoded.config);
  for (const campaign::CellRecord& record : decoded.records) {
    appendTo(rebuilt, campaign::Journal::encodeRecord(record));
  }
  EXPECT_EQ(hexOf(rebuilt), hexOf(file));
}

TEST(FramedLogGolden, StoreCorpusReencodesByteForByte) {
  const Bytes file = readCorpusFile("store/two_records.bin");
  const stats::StoreContents decoded = stats::ResultStore::decode(file);
  ASSERT_EQ(decoded.records.size(), 2u);

  Bytes rebuilt = stats::ResultStore::encodeHeader(decoded.config);
  for (const stats::SampleRecord& record : decoded.records) {
    appendTo(rebuilt, stats::ResultStore::encodeRecord(record));
  }
  EXPECT_EQ(hexOf(rebuilt), hexOf(file));
}

TEST(FramedLogGolden, ShardedJournalHeaderBytes) {
  const Bytes header = campaign::Journal::encodeHeader(shardedConfig());
  EXPECT_EQ(hexOf(header),
            "4e42434a01000000"  // "NBCJ", version 1
            "44000000e4ce2665"  // header frame: len 68, crc32
            "8877665544332211"  // registry hash
            "00ffeeddccbbaa99"  // fault-plan hash
            "0700000000000000"  // seed
            "05000000"          // --runs
            "02000000"          // --jobs
            "02000000"          // cell retries
            "0000001000000000"  // CPU array bytes
            "0000004000000000"  // GPU array bytes
            "0800000000000000"  // MPI message size
            "01000000"          // shard extension: index
            "03000000");        // shard extension: count
  const campaign::Journal::Decoded decoded = campaign::Journal::decode(header);
  EXPECT_EQ(decoded.config.shardIndex, 1u);
  EXPECT_EQ(decoded.config.shardCount, 3u);
  EXPECT_EQ(decoded.validBytes, header.size());
}

TEST(FramedLogGolden, ShardedStoreHeaderBytes) {
  const Bytes header = stats::ResultStore::encodeHeader(shardedConfig());
  EXPECT_EQ(hexOf(header),
            "4e42525301000000"  // "NBRS", version 1
            "44000000e4ce2665"  // same payload and CRC as the journal's
            "8877665544332211"
            "00ffeeddccbbaa99"
            "0700000000000000"
            "05000000"
            "02000000"
            "02000000"
            "0000001000000000"
            "0000004000000000"
            "0800000000000000"
            "01000000"
            "03000000");
  const stats::StoreContents decoded = stats::ResultStore::decode(header);
  EXPECT_EQ(decoded.config.shardIndex, 1u);
  EXPECT_EQ(decoded.config.shardCount, 3u);
}

TEST(FramedLogGolden, ShardManifestRecordBytes) {
  campaign::TableManifest manifest;
  manifest.label = "table 4";
  manifest.spec = {1, 3};
  manifest.cells = {{"Trinity", "host bandwidth"},
                    {"Manzano", "host bandwidth"},
                    {"Eagle", "on-socket latency"}};
  manifest.assigned = campaign::shardRangeFor(manifest.cells.size(),
                                              manifest.spec);
  const Bytes record =
      campaign::Journal::encodeRecord(campaign::manifestRecord(manifest));
  EXPECT_EQ(hexOf(record),
            "9a000000dc97bcd4"                  // frame: len 154, crc32
            "00000000"                          // machine "" (manifest)
            "070000007461626c652034"            // cell "table 4"
            "00000000"                          // attempts
            "00000000"                          // failed
            "00000000"                          // error ""
            "7b000000"                          // payload length 123
            "01000000"                          // manifest version
            "0100000003000000"                  // spec 1/3
            "070000007461626c652034"            // label
            "03000000"                          // cell count
            "070000005472696e697479"            // Trinity
            "0e000000686f73742062616e647769647468"
            "070000004d616e7a616e6f"            // Manzano
            "0e000000686f73742062616e647769647468"
            "050000004561676c65"                // Eagle
            "110000006f6e2d736f636b6574206c6174656e6379"
            "0100000002000000");                // assigned [1, 2)
  const campaign::Journal::Decoded decoded = campaign::Journal::decode(
      [&] {
        Bytes bytes = campaign::Journal::encodeHeader(shardedConfig());
        appendTo(bytes, record);
        return bytes;
      }());
  ASSERT_EQ(decoded.records.size(), 1u);
  EXPECT_TRUE(campaign::decodeManifestPayload(decoded.records[0].payload) ==
              manifest);
}

TEST(FramedLogGolden, FailedCellRecordBytes) {
  campaign::CellRecord failed;
  failed.machine = "Theta";
  failed.cell = "T4 stream-triad";
  failed.attempts = 3;
  failed.failed = true;
  failed.error = "injected: link flap";
  const Bytes record = campaign::Journal::encodeRecord(failed);
  EXPECT_EQ(hexOf(record),
            "3f00000009495d24"                      // frame: len 63, crc32
            "050000005468657461"                    // machine "Theta"
            "0f00000054342073747265616d"            // cell "T4 stream-triad"
            "2d7472696164"
            "03000000"                              // attempts
            "01000000"                              // failed
            "13000000696e6a65637465643a206c696e6b"  // error text
            "20666c6170"
            "00000000");                            // empty value blob
}

TEST(FramedLogGolden, SupervisorCorpusMatchesEncoder) {
  supervise::SupervisorConfig cfg;
  cfg.campaign.registryHash = 0x1122334455667788ull;
  cfg.campaign.faultPlanHash = 0x99aabbccddeeff00ull;
  cfg.campaign.seed = 42;
  cfg.campaign.runs = 100;
  cfg.campaign.jobs = 4;
  cfg.campaign.cellRetries = 2;
  cfg.campaign.cpuArrayBytes = 1ull << 28;
  cfg.campaign.gpuArrayBytes = 1ull << 30;
  cfg.campaign.mpiMessageSize = 8;
  cfg.shards = 3;
  cfg.maxAttempts = 2;
  cfg.backoffBaseMs = 250;
  cfg.backoffCapMs = 5000;

  std::vector<supervise::SupervisorEvent> events(4);
  events[0].kind = supervise::EventKind::AttemptStarted;
  events[0].shard = 0;
  events[0].attempt = 1;
  events[0].pid = 4242;
  events[1].kind = supervise::EventKind::AttemptFailed;
  events[1].shard = 0;
  events[1].attempt = 1;
  events[1].detail = "worker was killed by signal 9";
  events[2].kind = supervise::EventKind::ShardDone;
  events[2].shard = 1;
  events[2].attempt = 1;
  events[3].kind = supervise::EventKind::ShardPoisoned;
  events[3].shard = 2;
  events[3].attempt = 2;
  events[3].detail = "worker exited with code 1";

  Bytes encoded = supervise::SupervisorJournal::encodeHeader(cfg);
  for (const supervise::SupervisorEvent& event : events) {
    appendTo(encoded, supervise::SupervisorJournal::encodeEvent(event));
  }
  const Bytes file = readCorpusFile("supervisor/four_events.bin");
  EXPECT_EQ(hexOf(encoded), hexOf(file));

  const supervise::SupervisorJournal::Decoded decoded =
      supervise::SupervisorJournal::decode(file);
  EXPECT_TRUE(decoded.warnings.empty());
  EXPECT_EQ(decoded.validBytes, file.size());
  EXPECT_TRUE(decoded.config == cfg);
  EXPECT_EQ(decoded.events, events);
}

}  // namespace
}  // namespace nodebench
