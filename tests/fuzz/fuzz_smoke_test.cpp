/// \file fuzz_smoke_test.cpp
/// \brief Deterministic fuzz smoke suite — the in-tree stand-in for a
/// libFuzzer run.
///
/// ctest cannot assume a clang fuzzer runtime, so this gtest binary
/// replays the checked-in corpus and then drives both fuzz targets with
/// a fixed budget of seeded mutations (bit flips, truncations, byte
/// splices) derived from the corpus plus programmatically-built valid
/// journals. The acceptance bar is the fuzz contract: every input either
/// parses or raises the repository's Error hierarchy — no crash, hang,
/// or sanitizer report. A real fuzzing campaign (NODEBENCH_FUZZ=ON)
/// explores far deeper; this suite guards the boundary on every CI run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "core/rng.hpp"
#include "fuzz_targets.hpp"
#include "machines/machine_json.hpp"
#include "machines/registry.hpp"
#include "stats/store.hpp"

#ifndef NODEBENCH_FUZZ_CORPUS_DIR
#error "build system must define NODEBENCH_FUZZ_CORPUS_DIR"
#endif

namespace nodebench::fuzz {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::vector<Bytes> readCorpus(const std::string& subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(NODEBENCH_FUZZ_CORPUS_DIR) / subdir;
  std::vector<Bytes> out;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      paths.push_back(entry.path());
    }
  }
  // directory_iterator order is filesystem-dependent; sort for
  // deterministic mutation streams.
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    Bytes bytes((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    out.push_back(std::move(bytes));
  }
  return out;
}

/// A well-formed two-record journal, so mutations start from bytes that
/// reach the deepest decoder paths (header parse, record parse, payload
/// reads) rather than dying at the magic check.
Bytes validJournalSeed() {
  campaign::CampaignConfig cfg;
  cfg.registryHash = 0x1122334455667788ull;
  cfg.faultPlanHash = 0x99aabbccddeeff00ull;
  cfg.seed = 42;
  cfg.runs = 100;
  cfg.jobs = 8;
  Bytes bytes = campaign::Journal::encodeHeader(cfg);

  campaign::CellRecord ok;
  ok.machine = "Frontier";
  ok.cell = "T5 babelstream";
  ok.attempts = 1;
  campaign::PayloadWriter w;
  campaign::putSummary(w, Summary{});
  ok.payload = w.bytes();
  const Bytes r1 = campaign::Journal::encodeRecord(ok);
  bytes.insert(bytes.end(), r1.begin(), r1.end());

  campaign::CellRecord failed;
  failed.machine = "Theta";
  failed.cell = "T4 stream-triad";
  failed.attempts = 3;
  failed.failed = true;
  failed.error = "injected: link flap";
  const Bytes r2 = campaign::Journal::encodeRecord(failed);
  bytes.insert(bytes.end(), r2.begin(), r2.end());
  return bytes;
}

/// A well-formed two-record results store: header fingerprint plus one
/// bandwidth and one latency record with real sample vectors, so
/// mutations exercise the string/UTF-8 checks, the Summary read, and the
/// sample-count cross-check rather than dying at the magic.
Bytes validStoreSeed() {
  campaign::CampaignConfig cfg;
  cfg.registryHash = 0x1122334455667788ull;
  cfg.faultPlanHash = 0x99aabbccddeeff00ull;
  cfg.seed = 42;
  cfg.runs = 4;
  cfg.jobs = 8;
  Bytes bytes = stats::ResultStore::encodeHeader(cfg);

  stats::SampleRecord bw;
  bw.machine = "Frontier";
  bw.cell = "device bandwidth";
  bw.quantity = "bandwidth";
  bw.unit = "GB/s";
  bw.better = stats::Better::Higher;
  bw.samples = {1336.2, 1337.5, 1335.9, 1336.8};
  bw.summary = summarize(bw.samples);
  const Bytes r1 = stats::ResultStore::encodeRecord(bw);
  bytes.insert(bytes.end(), r1.begin(), r1.end());

  stats::SampleRecord lat;
  lat.machine = "Perlmutter";
  lat.cell = "cell \xc3\xa9\xe2\x82\xac";  // multi-byte UTF-8 is legal
  lat.quantity = "latency";
  lat.unit = "us";
  lat.better = stats::Better::Lower;
  lat.samples = {0.45, 0.46};
  lat.summary = summarize(lat.samples);
  const Bytes r2 = stats::ResultStore::encodeRecord(lat);
  bytes.insert(bytes.end(), r2.begin(), r2.end());
  return bytes;
}

/// A complete, *valid* two-shard merge container: both shards carry the
/// shard header extension, identical manifests with their canonical
/// ranges, and full cell coverage — so this seed actually merges, and
/// mutations explore the refusal paths from a byte pattern that reaches
/// the deepest validator stages (fingerprint diff, manifest equality,
/// range and coverage proofs) instead of dying at the magic check.
Bytes validMergeSeed() {
  const std::vector<campaign::GridCell> grid = {
      {"Trinity", "host bandwidth"},
      {"Trinity", "on-socket latency"},
      {"Manzano", "host bandwidth"},
  };
  Bytes container;
  const auto appendEntry = [&container](const Bytes& shard) {
    const auto len = static_cast<std::uint32_t>(shard.size());
    for (int i = 0; i < 4; ++i) {
      container.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xffu));
    }
    container.insert(container.end(), shard.begin(), shard.end());
  };
  for (std::uint32_t i = 0; i < 2; ++i) {
    campaign::CampaignConfig cfg;
    cfg.registryHash = 0x1122334455667788ull;
    cfg.seed = 7;
    cfg.runs = 5;
    cfg.jobs = 2;
    cfg.shardIndex = i;
    cfg.shardCount = 2;
    Bytes shard = campaign::Journal::encodeHeader(cfg);
    campaign::TableManifest manifest;
    manifest.label = "table 4";
    manifest.spec = {i, 2};
    manifest.cells = grid;
    manifest.assigned = campaign::shardRangeFor(grid.size(), manifest.spec);
    const Bytes m =
        campaign::Journal::encodeRecord(campaign::manifestRecord(manifest));
    shard.insert(shard.end(), m.begin(), m.end());
    for (std::size_t j = manifest.assigned.begin; j < manifest.assigned.end;
         ++j) {
      campaign::CellRecord cell;
      cell.machine = grid[j].machine;
      cell.cell = grid[j].cell;
      cell.attempts = 1;
      campaign::PayloadWriter w;
      campaign::putSummary(w, Summary{});
      cell.payload = w.bytes();
      const Bytes r = campaign::Journal::encodeRecord(cell);
      shard.insert(shard.end(), r.begin(), r.end());
    }
    appendEntry(shard);
  }
  return container;
}

/// One seeded mutation: flip bits, truncate, overwrite a run, or splice
/// in random bytes. Mirrors libFuzzer's default mutators closely enough
/// to shake out bounds bugs.
Bytes mutate(const Bytes& seed, Xoshiro256& rng) {
  Bytes out = seed;
  if (out.empty()) {
    out.push_back(static_cast<std::uint8_t>(rng.uniformInt(256)));
  }
  const std::uint64_t op = rng.uniformInt(4);
  switch (op) {
    case 0: {  // flip 1..8 random bits
      const std::uint64_t flips = 1 + rng.uniformInt(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniformInt(out.size()));
        out[pos] ^= static_cast<std::uint8_t>(1u << rng.uniformInt(8));
      }
      break;
    }
    case 1: {  // truncate at a random point
      out.resize(static_cast<std::size_t>(rng.uniformInt(out.size() + 1)));
      break;
    }
    case 2: {  // overwrite a short run with random bytes
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniformInt(out.size()));
      const std::size_t len = std::min<std::size_t>(
          out.size() - pos, 1 + static_cast<std::size_t>(rng.uniformInt(16)));
      for (std::size_t k = 0; k < len; ++k) {
        out[pos + k] = static_cast<std::uint8_t>(rng.uniformInt(256));
      }
      break;
    }
    default: {  // splice random bytes into the middle
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniformInt(out.size() + 1));
      const std::size_t len = 1 + static_cast<std::size_t>(rng.uniformInt(8));
      Bytes noise(len);
      for (auto& b : noise) {
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
      }
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                 noise.begin(), noise.end());
      break;
    }
  }
  return out;
}

void drive(int (*target)(const std::uint8_t*, std::size_t),
           const std::vector<Bytes>& seeds, std::uint64_t rngSeed,
           int mutations) {
  ASSERT_FALSE(seeds.empty());
  for (const Bytes& s : seeds) {
    EXPECT_EQ(target(s.data(), s.size()), 0);
  }
  Xoshiro256 rng(rngSeed);
  for (int i = 0; i < mutations; ++i) {
    const Bytes& base =
        seeds[static_cast<std::size_t>(rng.uniformInt(seeds.size()))];
    const Bytes mutated = mutate(base, rng);
    EXPECT_EQ(target(mutated.data(), mutated.size()), 0);
  }
}

TEST(FuzzSmoke, JsonCorpusAndTenThousandMutations) {
  drive(&runJsonOneInput, readCorpus("json"), 0x6a736f6e5f667a31ull, 10'000);
}

TEST(FuzzSmoke, JournalCorpusAndTenThousandMutations) {
  std::vector<Bytes> seeds = readCorpus("journal");
  seeds.push_back(validJournalSeed());
  drive(&runJournalOneInput, seeds, 0x6e62636a5f667a31ull, 10'000);
}

TEST(FuzzSmoke, StoreCorpusAndTenThousandMutations) {
  std::vector<Bytes> seeds = readCorpus("store");
  seeds.push_back(validStoreSeed());
  drive(&runStoreOneInput, seeds, 0x6e62727335f67a31ull, 10'000);
}

TEST(FuzzSmoke, SupervisorJournalCorpusAndTenThousandMutations) {
  drive(&runSupervisorJournalOneInput, readCorpus("supervisor"),
        0x6e6273765f667a31ull, 10'000);
}

TEST(FuzzSmoke, MergeCorpusAndTenThousandMutations) {
  std::vector<Bytes> seeds = readCorpus("merge");
  seeds.push_back(validMergeSeed());
  drive(&runMergeOneInput, seeds, 0x6d72675f667a3176ull, 10'000);
}

TEST(FuzzSmoke, ServeCorpusAndTenThousandMutations) {
  drive(&runServeOneInput, readCorpus("serve"), 0x7372765f667a3176ull, 10'000);
}

TEST(FuzzSmoke, MachineJsonCorpusAndTenThousandMutations) {
  std::vector<Bytes> seeds = readCorpus("machine_json");
  // Every registry card is a live seed: the fixed-point check then runs
  // against the exact documents `nodebench card --json` ships.
  for (const machines::Machine& m : machines::allMachines()) {
    const std::string j = machines::machineJson(m);
    seeds.emplace_back(j.begin(), j.end());
  }
  drive(&runMachineJsonOneInput, seeds, 0x6d6a736e5f667a31ull, 10'000);
}

/// Cross-pollination: each format's bytes into the other decoders.
/// Cheap, and catches "assumed the other format's framing" bugs —
/// journal, store and supervisor journal share their CRC framing but not
/// their magic or payload schema, so each must cleanly reject the others.
TEST(FuzzSmoke, CrossFormatInputsAreRejectedGracefully) {
  const Bytes journal = validJournalSeed();
  const Bytes store = validStoreSeed();
  EXPECT_EQ(runJsonOneInput(journal.data(), journal.size()), 0);
  EXPECT_EQ(runStoreOneInput(journal.data(), journal.size()), 0);
  EXPECT_EQ(runJournalOneInput(store.data(), store.size()), 0);
  for (const Bytes& supervisor : readCorpus("supervisor")) {
    EXPECT_EQ(runJournalOneInput(supervisor.data(), supervisor.size()), 0);
    EXPECT_EQ(runStoreOneInput(supervisor.data(), supervisor.size()), 0);
  }
  EXPECT_EQ(runSupervisorJournalOneInput(journal.data(), journal.size()), 0);
  EXPECT_EQ(runSupervisorJournalOneInput(store.data(), store.size()), 0);
  EXPECT_EQ(runJsonOneInput(store.data(), store.size()), 0);
  EXPECT_EQ(runServeOneInput(journal.data(), journal.size()), 0);
  EXPECT_EQ(runServeOneInput(store.data(), store.size()), 0);
  // Bare journals/stores into the merge container parser: the length
  // prefix reads as garbage lengths, and a store is not a journal.
  EXPECT_EQ(runMergeOneInput(journal.data(), journal.size()), 0);
  EXPECT_EQ(runMergeOneInput(store.data(), store.size()), 0);
  const Bytes mergeSeed = validMergeSeed();
  EXPECT_EQ(runJournalOneInput(mergeSeed.data(), mergeSeed.size()), 0);
  EXPECT_EQ(runStoreOneInput(mergeSeed.data(), mergeSeed.size()), 0);
  for (const Bytes& doc : readCorpus("json")) {
    EXPECT_EQ(runJournalOneInput(doc.data(), doc.size()), 0);
    EXPECT_EQ(runStoreOneInput(doc.data(), doc.size()), 0);
    // Fault-plan documents are also near-miss serve requests (a serve
    // spec embeds a plan under "fault_plan"), a good confusion corpus.
    EXPECT_EQ(runServeOneInput(doc.data(), doc.size()), 0);
  }
}

}  // namespace
}  // namespace nodebench::fuzz
