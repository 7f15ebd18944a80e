#pragma once
/// \file store.hpp
/// \brief Versioned on-disk results store: full per-repetition sample
/// vectors, the raw material of regression detection.
///
/// The campaign journal (campaign/journal.hpp) persists *summaries* so a
/// crashed run can resume; this store persists *samples* so two runs can
/// be compared statistically (`nodebench compare` / `gate`). Format:
///
///   magic "NBRS" | u32 schema version
///   CRC32-framed header: the same campaign-configuration fingerprint a
///     journal records (registry hash, fault-plan hash, seed, --runs,
///     --jobs, retry budget, array/message sizes) — a comparison between
///     stores can therefore name exactly which knob differed.
///   CRC32-framed records: machine, cell, quantity, unit, direction
///     (lower- or higher-is-better), the Summary, and every raw sample
///     as an exact IEEE-754 bit pattern.
///
/// Framing and payload serialization are the campaign layer's framed-log
/// codec (campaign/framed_log.hpp), and so is group commit: appends
/// write, `commit()` fsyncs. The tail policy depends on who reads. A
/// finished store is an artifact — `load` (compare, gate, merge) treats
/// any invalid frame as corruption and throws StoreCorruptError instead
/// of silently comparing against a partial run. A store being resumed is
/// a crash log like the journal: `attach(…, resume=true)` cuts a torn
/// tail with the journal's "torn tail truncated" warning and rewrites the
/// valid prefix, and the harness re-measures what was cut. The decoder is
/// a fuzz target (tests/fuzz/).
///
/// Appends are idempotent per (machine, cell, quantity) and thread-safe:
/// the parallel table harness writes records from worker threads, so
/// *file order* varies with `--jobs`, but consumers index records by key
/// — every comparison built from a store is byte-identical at any
/// worker count.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace nodebench::stats {

/// Thrown when a store file is unusable: bad magic, unsupported schema
/// version, or any framing/payload corruption of a finished store — a
/// results artifact is all-or-nothing. (Only the resume path recovers a
/// torn tail.)
class StoreCorruptError : public Error {
 public:
  using Error::Error;
};

/// Thrown when `--store` with `--resume` finds a store recorded under a
/// different campaign configuration; what() names the mismatched
/// parameter (same UX as the journal's `--resume` refusal).
class StoreConfigMismatchError : public Error {
 public:
  using Error::Error;
};

/// Which direction of change is a regression for a quantity.
enum class Better : std::uint8_t {
  Lower = 0,   ///< Latencies: an increase is a regression.
  Higher = 1,  ///< Bandwidths: a decrease is a regression.
};

/// One stored measurement: a cell quantity with its full sample vector.
struct SampleRecord {
  std::string machine;
  std::string cell;      ///< Harness cell name (e.g. "host bandwidth").
  std::string quantity;  ///< Quantity within the cell (e.g. "latency").
  std::string unit;      ///< "us", "GB/s", ...
  Better better = Better::Lower;
  Summary summary;  ///< Aggregate of `samples`, stored for cheap scans.
  std::vector<double> samples;
};

/// The index key of one stored quantity: campaign::cellKey() plus
/// "\x1f quantity" — unique per (machine, cell, quantity).
[[nodiscard]] std::string sampleKey(const SampleRecord& record);

/// A fully decoded store: the recorded configuration plus every record
/// in file order.
struct StoreContents {
  campaign::CampaignConfig config;
  std::vector<SampleRecord> records;
};

/// "" when resume-compatible (every field except `jobs` equal), else a
/// diagnostic naming the first mismatched parameter and both values.
[[nodiscard]] std::string describeStoreMismatch(
    const campaign::CampaignConfig& recorded,
    const campaign::CampaignConfig& current);

/// The append-side handle the measurement harness writes through.
class ResultStore {
 public:
  /// Starts a fresh store at `path` (atomic header write, then append
  /// stream). Refuses to overwrite an existing file.
  [[nodiscard]] static std::unique_ptr<ResultStore> create(
      const std::string& path, const campaign::CampaignConfig& config);

  /// Opens a store for a campaign: `resume == false` is create();
  /// `resume == true` reopens an existing file for appending — after
  /// verifying its recorded configuration matches `current`
  /// (StoreConfigMismatchError naming the parameter otherwise) and
  /// cutting a torn tail (recorded in `warnings()`) — or creates the
  /// file when it does not exist yet.
  [[nodiscard]] static std::unique_ptr<ResultStore> attach(
      const std::string& path, const campaign::CampaignConfig& current,
      bool resume);

  /// Reads and strictly decodes a store file.
  [[nodiscard]] static StoreContents load(const std::string& path);

  /// Pure in-memory decode — the fuzz-target entry point. Throws
  /// StoreCorruptError on any deviation from the format.
  [[nodiscard]] static StoreContents decode(
      std::span<const std::uint8_t> bytes);

  /// Serialized forms (exposed for tests and the fuzz corpus).
  [[nodiscard]] static std::vector<std::uint8_t> encodeHeader(
      const campaign::CampaignConfig& config);
  [[nodiscard]] static std::vector<std::uint8_t> encodeRecord(
      const SampleRecord& record);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// CRC-framed append (a write, no fsync). Idempotent per (machine,
  /// cell, quantity) and thread-safe.
  void append(SampleRecord record);

  /// Appends every record of one measured cell under one lock, skipping
  /// those already stored — so a cell cut off between its records gets
  /// exactly the missing ones. The harness calls this from parallel
  /// workers.
  void appendCell(std::vector<SampleRecord> records);

  /// True when `records` quantities of (machine, cell) are stored: every
  /// record the cell's measurement writes. The harness's "skip
  /// re-measuring this cell" test; a half-stored cell is measured again.
  [[nodiscard]] bool containsCell(std::string_view machine,
                                  std::string_view cell,
                                  std::size_t records) const;

  /// Makes every appended record durable, like Journal::commit(): one
  /// fsync, or Error("store fsync failed: <path>: <errno>") after
  /// truncating the file back to its last commit.
  void commit();

  [[nodiscard]] const campaign::CampaignConfig& config() const {
    return config_;
  }
  [[nodiscard]] std::size_t recordCount() const;
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

 private:
  explicit ResultStore(campaign::FramedLogFile file)
      : file_(std::move(file)) {}

  /// append() with mu_ held.
  void appendLocked(SampleRecord record);

  campaign::FramedLogFile file_;
  campaign::CampaignConfig config_;
  std::set<std::string, std::less<>> recordKeys_;
  /// Stored records per campaign::cellKey().
  std::map<std::string, std::size_t, std::less<>> cellRecords_;
  std::vector<std::string> warnings_;
  mutable std::mutex mu_;
};

}  // namespace nodebench::stats
