#pragma once
/// \file journal.hpp
/// \brief Crash-safe measurement journal: the durability layer of a
/// benchmark campaign.
///
/// The paper's methodology ("run each benchmark binary 100 times,
/// aggregate mean ± stddev") makes a full table run expensive; before
/// this layer, a crash, OOM-kill or Ctrl-C anywhere in a multi-machine
/// run discarded every completed cell. The journal makes campaigns
/// durable and resumable:
///
///  - **Append-only record log.** One record per *completed* cell
///    measurement (success or exhausted-retries failure), CRC32 +
///    length-prefixed so a reader can always tell a valid prefix from a
///    torn tail.
///  - **Schema-versioned header** carrying the campaign configuration
///    fingerprint: machine-registry hash, fault-plan hash, seed,
///    `--runs`/`--jobs` and the array/message-size knobs. Resuming under
///    a different configuration is refused with a diagnostic naming the
///    mismatched parameter — silently mixing configurations is exactly
///    the reproducibility failure the journal exists to prevent.
///  - **Atomic creation** (write temp, fsync, rename) and group commit:
///    every append writes its record before it returns, and `commit()`
///    (or the framed log's commit window) fsyncs them. A kill at any
///    byte boundary leaves a file the reader recovers from: the valid
///    record prefix replays, the torn tail is truncated with a warning
///    (never an abort). A power loss can also take what was written
///    after the last commit; those cells are re-measured.
///  - **Deterministic replay.** Record payloads store result values as
///    exact IEEE-754 bit patterns, so a resumed campaign's tables are
///    byte-identical to an uninterrupted run at any `--jobs` value.
///
/// The journal trusts nothing it reads back: record lengths, string
/// sizes and UTF-8 validity are all bounds-checked (the decoder is a
/// fuzz target, see tests/fuzz/), and header corruption raises
/// `JournalCorruptError` rather than guessing.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/framed_log.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace nodebench::campaign {

/// Thrown when `--resume` finds a journal recorded under a different
/// campaign configuration; what() names the mismatched parameter.
class JournalConfigMismatchError : public Error {
 public:
  using Error::Error;
};

/// Summary round-trip helpers shared by every journalled cell.
void putSummary(PayloadWriter& w, const Summary& s);
[[nodiscard]] Summary readSummary(PayloadReader& r);

/// The NBCJ on-disk format (DESIGN.md §10, "Framed logs").
inline constexpr FramedLogFormat kJournalFormat{
    .magic = "NBCJ",
    .version = 1,
    .label = "journal",
    .recordNoun = "record",
    .maxFrameBytes = 1u << 20,
    .maxFileBytes = 256ull << 20,
    .tail = TailPolicy::Truncate,
    .shardSpec = true,
    .corrupt = &makeError<JournalCorruptError>,
};

/// "" when compatible, else a diagnostic naming the first mismatched
/// parameter and both values (the `--resume` refusal message).
[[nodiscard]] std::string describeConfigMismatch(const CampaignConfig& recorded,
                                                 const CampaignConfig& current);

/// The index key of one grid cell: "machine \x1f cell". The unit
/// separator cannot appear in valid UTF-8 names, so keys never collide.
[[nodiscard]] std::string cellKey(std::string_view machine,
                                  std::string_view cell);

/// One journalled cell outcome. `payload` is the cell-specific value
/// blob (empty for failed cells, which only carry their incident).
struct CellRecord {
  std::string machine;
  std::string cell;
  std::uint32_t attempts = 0;
  bool failed = false;
  std::string error;  ///< Last attempt's error text ("" when clean).
  std::vector<std::uint8_t> payload;
};

/// The journal proper. Thread-safe: the parallel harness appends and
/// looks up records concurrently from worker threads.
class Journal {
 public:
  /// Starts a fresh journal at `path` via write-temp/fsync/rename.
  /// Refuses to overwrite an existing file — resuming must be an
  /// explicit decision (`--resume`), not an accident.
  [[nodiscard]] static std::unique_ptr<Journal> create(
      const std::string& path, const CampaignConfig& config);

  /// Reopens an existing journal for resumption: replays the valid
  /// record prefix, truncates a torn tail (recorded in `warnings()`),
  /// and throws JournalConfigMismatchError when the recorded
  /// configuration is incompatible with `current`.
  [[nodiscard]] static std::unique_ptr<Journal> resume(
      const std::string& path, const CampaignConfig& current);

  /// Pure in-memory decode — the fuzz-target entry point and the core
  /// of resume(). `validBytes` reports the length of the valid prefix
  /// (file content beyond it is a torn tail).
  struct Decoded {
    CampaignConfig config;
    std::vector<CellRecord> records;
    std::size_t validBytes = 0;
    std::vector<std::string> warnings;
  };
  [[nodiscard]] static Decoded decode(std::span<const std::uint8_t> bytes);

  /// Serialized forms (exposed for tests and the fuzz corpus).
  [[nodiscard]] static std::vector<std::uint8_t> encodeHeader(
      const CampaignConfig& config);
  [[nodiscard]] static std::vector<std::uint8_t> encodeRecord(
      const CellRecord& record);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The completed-cell record for (machine, cell), or nullptr when the
  /// cell still needs measuring.
  [[nodiscard]] const CellRecord* find(std::string_view machine,
                                       std::string_view cell) const;

  /// Appends one completed cell: CRC-framed write (no fsync), then the
  /// in-memory index. Idempotent — a key that is already journalled
  /// (e.g. `table all` computing Table 5 twice) is not re-appended.
  void append(CellRecord record);

  /// Makes every appended record durable (one fsync; a no-op when
  /// nothing was appended since the last commit). Throws
  /// Error("journal fsync failed: <path>: <errno>") after truncating the
  /// file back to its last commit; the index then runs ahead of the
  /// file, so the owner abandons the run.
  void commit();

  [[nodiscard]] const CampaignConfig& config() const { return config_; }
  [[nodiscard]] std::size_t recordCount() const;
  /// Records with a non-empty machine name — i.e. measured cells,
  /// excluding shard manifests (the honest "N cell(s) already measured"
  /// count for resume messages).
  [[nodiscard]] std::size_t cellRecordCount() const;
  [[nodiscard]] std::size_t appendedThisProcess() const;
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

  /// Crash-injection test hook (`table --crash-after-cell N`): right
  /// after the Nth append of this process has written its record, and
  /// before anything commits it, the journal terminates the process
  /// (exit code 42): an operator kill between a write and its fsync.
  void setCrashAfterAppends(int n) { crashAfter_ = n; }
  static constexpr int kCrashExitCode = 42;

 private:
  explicit Journal(FramedLogFile file) : file_(std::move(file)) {}

  FramedLogFile file_;
  CampaignConfig config_;
  std::map<std::string, CellRecord, std::less<>> records_;
  std::vector<std::string> warnings_;
  int crashAfter_ = -1;
  std::size_t appended_ = 0;
  mutable std::mutex mu_;
};

}  // namespace nodebench::campaign
