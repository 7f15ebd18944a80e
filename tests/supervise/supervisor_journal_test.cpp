/// \file supervisor_journal_test.cpp
/// \brief On-disk format and recovery behaviour of the supervisor's own
/// crash-safe journal: create/append/resume round-trips, torn-tail
/// truncation with warnings, corrupt-header refusals, and the
/// parameter-mismatch refusal contract (which must name the parameter).

#include "supervise/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "../shard/shard_test_util.hpp"

namespace nodebench::supervise {
namespace {

using shardtest::ScratchDir;
using shardtest::readFileBytes;

SupervisorConfig demoConfig() {
  SupervisorConfig cfg;
  cfg.campaign.registryHash = 0x1122334455667788ULL;
  cfg.campaign.faultPlanHash = 0x99aabbccULL;
  cfg.campaign.seed = 7;
  cfg.campaign.runs = 25;
  cfg.campaign.jobs = 4;
  cfg.campaign.cellRetries = 2;
  cfg.shards = 3;
  cfg.maxAttempts = 2;
  cfg.backoffBaseMs = 250;
  cfg.backoffCapMs = 5000;
  return cfg;
}

SupervisorEvent started(std::uint32_t shard, std::uint32_t attempt,
                        std::uint64_t pid) {
  SupervisorEvent e;
  e.kind = EventKind::AttemptStarted;
  e.shard = shard;
  e.attempt = attempt;
  e.pid = pid;
  return e;
}

SupervisorEvent failed(std::uint32_t shard, std::uint32_t attempt,
                       std::string detail) {
  SupervisorEvent e;
  e.kind = EventKind::AttemptFailed;
  e.shard = shard;
  e.attempt = attempt;
  e.detail = std::move(detail);
  return e;
}

void appendRaw(const std::string& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(SupervisorJournal, CreateAppendResumeRoundTrip) {
  ScratchDir dir("nb-supervisor-journal-roundtrip");
  const std::string path = dir.path("sv.journal");
  const auto cfg = demoConfig();
  {
    const auto journal = SupervisorJournal::create(path, cfg);
    journal->append(started(0, 1, 101));
    journal->append(failed(0, 1, "worker was killed by signal 9"));
    journal->append(started(0, 2, 102));
  }
  const auto resumed = SupervisorJournal::resume(path, cfg);
  EXPECT_TRUE(resumed->warnings().empty());
  ASSERT_EQ(resumed->events().size(), 3u);
  EXPECT_EQ(resumed->events()[0], started(0, 1, 101));
  EXPECT_EQ(resumed->events()[1],
            failed(0, 1, "worker was killed by signal 9"));
  EXPECT_EQ(resumed->events()[2], started(0, 2, 102));
  EXPECT_TRUE(resumed->config() == cfg);
}

TEST(SupervisorJournal, CreateRefusesExistingFile) {
  ScratchDir dir("nb-supervisor-journal-exists");
  const std::string path = dir.path("sv.journal");
  const auto cfg = demoConfig();
  { (void)SupervisorJournal::create(path, cfg); }
  try {
    (void)SupervisorJournal::create(path, cfg);
    FAIL() << "create over an existing journal must refuse";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << "the refusal should point at --resume: " << e.what();
  }
}

TEST(SupervisorJournal, ResumeTruncatesTornTailOnce) {
  ScratchDir dir("nb-supervisor-journal-torn");
  const std::string path = dir.path("sv.journal");
  const auto cfg = demoConfig();
  {
    const auto journal = SupervisorJournal::create(path, cfg);
    journal->append(started(1, 1, 55));
    journal->append(failed(1, 1, "boom"));
  }
  const auto intact = readFileBytes(path);
  // A kill mid-append: half an event frame dangles off the end.
  auto torn = SupervisorJournal::encodeEvent(started(2, 1, 56));
  torn.resize(torn.size() / 2);
  appendRaw(path, torn);

  {
    const auto resumed = SupervisorJournal::resume(path, cfg);
    ASSERT_EQ(resumed->warnings().size(), 1u);
    EXPECT_NE(resumed->warnings()[0].find("torn tail"), std::string::npos)
        << resumed->warnings()[0];
    ASSERT_EQ(resumed->events().size(), 2u);
    EXPECT_EQ(resumed->events()[1], failed(1, 1, "boom"));
  }
  // The resume rewrote the file to the valid prefix…
  EXPECT_EQ(readFileBytes(path), intact);
  // …so a second resume is clean.
  const auto again = SupervisorJournal::resume(path, cfg);
  EXPECT_TRUE(again->warnings().empty());
  EXPECT_EQ(again->events().size(), 2u);
}

TEST(SupervisorJournal, ResumeRefusesParameterMismatchNamingIt) {
  ScratchDir dir("nb-supervisor-journal-mismatch");
  const auto cfg = demoConfig();
  const auto expectRefusal = [&](SupervisorConfig changed,
                                 const std::string& param) {
    const std::string path = dir.path("sv-" + param + ".journal");
    { (void)SupervisorJournal::create(path, cfg); }
    try {
      (void)SupervisorJournal::resume(path, changed);
      FAIL() << "resume under a different " << param << " must refuse";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(param), std::string::npos)
          << "diagnostic should name " << param << ": " << e.what();
    }
  };

  auto c = cfg;
  c.shards = 5;
  expectRefusal(c, "--shards");
  c = cfg;
  c.maxAttempts = 9;
  expectRefusal(c, "--max-attempts");
  c = cfg;
  c.backoffBaseMs = 1;
  expectRefusal(c, "--backoff-base-ms");
  c = cfg;
  c.backoffCapMs = 1;
  expectRefusal(c, "--backoff-cap-ms");
  c = cfg;
  c.campaign.runs = 26;
  expectRefusal(c, "--runs");
}

TEST(SupervisorJournal, ResumeIgnoresJobsLikeEveryFingerprintComparison) {
  ScratchDir dir("nb-supervisor-journal-jobs");
  const std::string path = dir.path("sv.journal");
  const auto cfg = demoConfig();
  { (void)SupervisorJournal::create(path, cfg); }
  auto differentJobs = cfg;
  differentJobs.campaign.jobs = 16;
  const auto resumed = SupervisorJournal::resume(path, differentJobs);
  EXPECT_TRUE(resumed->warnings().empty());
}

TEST(SupervisorJournal, DecodeRefusesBadMagicAndVersion) {
  const auto cfg = demoConfig();
  auto bytes = SupervisorJournal::encodeHeader(cfg);
  {
    auto bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_THROW((void)SupervisorJournal::decode(bad),
                 SupervisorJournalError);
  }
  {
    auto bad = bytes;
    bad[4] = 0x7f;  // schema version nobody writes
    try {
      (void)SupervisorJournal::decode(bad);
      FAIL() << "unknown schema version must refuse";
    } catch (const SupervisorJournalError& e) {
      EXPECT_NE(std::string(e.what()).find("schema version"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)SupervisorJournal::decode(
                   std::vector<std::uint8_t>{'N', 'B'}),
               SupervisorJournalError);
}

TEST(SupervisorJournal, DecodeRefusesCorruptHeader) {
  const auto cfg = demoConfig();
  auto bytes = SupervisorJournal::encodeHeader(cfg);
  // Flip one payload byte: the header CRC no longer matches. Unlike a
  // torn event tail this is a hard error — there is no campaign identity
  // to resume against.
  bytes.back() ^= 0x01;
  EXPECT_THROW((void)SupervisorJournal::decode(bytes),
               SupervisorJournalError);
  // Truncated mid-header is equally fatal.
  auto truncated = SupervisorJournal::encodeHeader(cfg);
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW((void)SupervisorJournal::decode(truncated),
               SupervisorJournalError);
}

TEST(SupervisorJournal, DecodeDropsInvalidEventsAsTornTail) {
  const auto cfg = demoConfig();
  const auto header = SupervisorJournal::encodeHeader(cfg);

  const auto expectTornAfterOne = [&](std::vector<std::uint8_t> tail,
                                      const std::string& whyFragment) {
    auto bytes = header;
    const auto good = SupervisorJournal::encodeEvent(started(0, 1, 9));
    bytes.insert(bytes.end(), good.begin(), good.end());
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    const auto decoded = SupervisorJournal::decode(bytes);
    EXPECT_EQ(decoded.events.size(), 1u) << whyFragment;
    ASSERT_EQ(decoded.warnings.size(), 1u) << whyFragment;
    EXPECT_NE(decoded.warnings[0].find(whyFragment), std::string::npos)
        << decoded.warnings[0];
    EXPECT_EQ(decoded.validBytes, header.size() + good.size());
  };

  // A bit-flipped frame: the event checksum no longer matches.
  {
    auto flipped = SupervisorJournal::encodeEvent(failed(0, 1, "flip"));
    flipped.back() ^= 0x01;
    expectTornAfterOne(flipped, "checksum mismatch");
  }
  // CRC-valid frame naming a shard outside the campaign.
  expectTornAfterOne(
      SupervisorJournal::encodeEvent(started(cfg.shards + 4, 1, 9)),
      "names shard");
  // Half a frame (the classic kill-mid-append).
  auto half = SupervisorJournal::encodeEvent(failed(0, 1, "x"));
  half.resize(5);
  expectTornAfterOne(half, "incomplete event frame");
}

TEST(SupervisorJournal, EncodeHeaderRefusesAShardedCampaign) {
  // The header has no shard-spec extension: a sharded campaign config
  // would silently decode back as unsharded.
  auto cfg = demoConfig();
  cfg.campaign.shardIndex = 1;
  cfg.campaign.shardCount = 3;
  EXPECT_THROW((void)SupervisorJournal::encodeHeader(cfg), PreconditionError);
}

TEST(SupervisorJournal, LoadRefusesAnImplausiblyLargeFile) {
  ScratchDir dir("nb-supervisor-journal-large");
  const std::string path = dir.path("sv.journal");
  { (void)SupervisorJournal::create(path, demoConfig()); }
  // Sparse: one byte over the 64 MiB cap without writing 64 MiB.
  std::filesystem::resize_file(path, (64ull << 20) + 1);
  try {
    (void)SupervisorJournal::load(path);
    FAIL() << "an oversized supervisor journal must be refused";
  } catch (const SupervisorJournalError& e) {
    EXPECT_NE(std::string(e.what()).find("implausibly large"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nodebench::supervise
