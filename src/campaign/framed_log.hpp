#pragma once
/// \file framed_log.hpp
/// \brief The one codec under every append-only CRC32-framed log: the
/// campaign journal (NBCJ), the results store (NBRS) and the supervisor
/// journal (NBSV).
///
/// All three share one on-disk layout (integers little-endian):
///
///   magic (4 bytes) | u32 version
///   header frame : [u32 len][u32 crc32][payload]
///   record frame*: [u32 len][u32 crc32][payload]
///
/// and one header payload: the campaign-configuration fingerprint
/// (`CampaignConfig`), then the format's header extension. What differs
/// per format is a `FramedLogFormat` descriptor (magic, version,
/// diagnostic noun, frame and file caps, tail policy, error type) plus
/// the format's own record payload schema; everything else lives here:
/// the frame encoder, the capped file reader, the decode loop, the
/// create / reopen / torn-tail-rewrite lifecycle over `io::atomicWrite`,
/// group commit (`FramedLogFile::append` writes a frame,
/// `FramedLogFile::commit` fsyncs what was written since the last
/// commit) and the configuration mismatch describer. DESIGN.md §10
/// "Framed logs" tabulates the three descriptors and "Durability
/// invariants" states the commit contract.
///
/// The payload primitives live here too: `PayloadWriter` and the
/// bounds-checked `PayloadReader` serialize every header, record, shard
/// manifest and journalled cell value.

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace nodebench::campaign {

/// Thrown when a campaign journal is unusable (bad magic, unsupported
/// schema version, corrupt header). Record-level corruption is *not* an
/// error — it is recovered by torn-tail truncation. It is also what
/// `PayloadReader` throws on any malformed payload; the other formats
/// translate it into their own error type.
class JournalCorruptError : public Error {
 public:
  using Error::Error;
};

/// Little-endian byte serializer for record payloads. Cells encode
/// their result values through this so replay restores bit-exact
/// doubles (byte-identical tables are the whole point).
class PayloadWriter {
 public:
  void putU32(std::uint32_t value);
  void putU64(std::uint64_t value);
  void putF64(double value);  ///< Exact bit pattern, not text.
  void putString(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a payload. Every accessor throws
/// JournalCorruptError on overrun or oversized strings — payloads come
/// from disk and are untrusted even after their CRC passed.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string string();
  /// Raw byte run of exactly `len` bytes (an opaque nested blob).
  [[nodiscard]] std::vector<std::uint8_t> blob(std::uint32_t len);
  [[nodiscard]] bool atEnd() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// The configuration fingerprint every framed log header carries. Two
/// campaign runs are resume-compatible iff every field except `jobs`
/// matches — `jobs` is provenance only, because harness output is
/// byte-identical at any worker count (DESIGN.md §7), so resuming at a
/// different `--jobs` is safe and explicitly supported.
struct CampaignConfig {
  std::uint64_t registryHash = 0;   ///< campaign::registryHash()
  std::uint64_t faultPlanHash = 0;  ///< campaign::faultPlanHash(); 0 = none
  std::uint64_t seed = 0;           ///< Fault-plan seed; 0 without a plan.
  std::uint32_t runs = 100;         ///< --runs (binary runs per cell).
  std::uint32_t jobs = 0;           ///< --jobs when recorded (provenance).
  std::uint32_t cellRetries = 2;
  std::uint64_t cpuArrayBytes = 0;
  std::uint64_t gpuArrayBytes = 0;
  std::uint64_t mpiMessageSize = 0;
  /// Shard identity (`--shard i/N`); count == 0 = unsharded. Encoded as
  /// an optional header extension only when sharded, so unsharded
  /// journals stay byte-identical to the pre-shard format. Resuming a
  /// shard journal under a different spec is refused like any other
  /// fingerprint mismatch.
  std::uint32_t shardIndex = 0;
  std::uint32_t shardCount = 0;
};

/// What the decoder does with the first invalid record frame.
enum class TailPolicy {
  /// Keep the valid prefix and drop the rest with a "torn tail
  /// truncated: ..." warning: a kill mid-append is a journal's normal
  /// operating condition.
  Truncate,
  /// Throw the format's corruption error: a finished artifact with a
  /// damaged frame cannot be trusted at all.
  Refuse,
};

/// Everything that distinguishes one framed log from another.
struct FramedLogFormat {
  std::string_view magic;  ///< Exactly 4 bytes.
  std::uint32_t version = 1;
  /// Diagnostic noun ("journal", "store", ...) — also the io:: label.
  const char* label = "";
  const char* recordNoun = "record";  ///< "record", "event"
  std::uint32_t maxFrameBytes = 0;    ///< Header and record frames alike.
  std::uintmax_t maxFileBytes = 0;
  TailPolicy tail = TailPolicy::Truncate;
  /// Whether the header may carry the trailing shard-spec extension.
  bool shardSpec = false;
  /// Builds the format's corruption error, which the codec throws.
  std::exception_ptr (*corrupt)(const std::string& what) = nullptr;
};

/// `FramedLogFormat::corrupt` for an error type constructible from text.
template <class E>
std::exception_ptr makeError(const std::string& what) {
  return std::make_exception_ptr(E(what));
}

/// Reads one record (or header-extension) payload. Throws
/// JournalCorruptError — or the format's own error type — when the
/// payload is malformed.
using PayloadParser = std::function<void(PayloadReader&)>;

/// One length-prefixed CRC-framed chunk: [u32 len][u32 crc32][payload].
[[nodiscard]] std::vector<std::uint8_t> encodeFrame(
    std::span<const std::uint8_t> payload);

/// A fresh file's bytes: magic, version, and the header frame carrying
/// `config` (plus its shard spec when sharded) followed by `extension`.
/// Precondition: `config` is unsharded unless the format has the
/// shard-spec extension.
[[nodiscard]] std::vector<std::uint8_t> encodeLogHeader(
    const FramedLogFormat& format, const CampaignConfig& config,
    std::span<const std::uint8_t> extension = {});

/// What decodeFramedLog learns besides the records.
struct DecodedLog {
  CampaignConfig config;
  std::size_t validBytes = 0;  ///< Length of the valid frame prefix.
  std::vector<std::string> warnings;
};

/// Decodes a whole log image. The prefix and the header frame are
/// mandatory: any damage there throws the format's error. The header's
/// CampaignConfig is read here; `readHeaderExtension` (optional) reads
/// the format's trailing header fields. `readRecord` is called once per
/// record frame, in file order, and must consume the whole payload. A
/// bad frame, or a payload whose parser throws JournalCorruptError,
/// ends the log according to `format.tail`.
[[nodiscard]] DecodedLog decodeFramedLog(
    const FramedLogFormat& format, std::span<const std::uint8_t> bytes,
    const PayloadParser& readRecord,
    const PayloadParser& readHeaderExtension = {});

/// Reads a whole log file, refusing one larger than `format.maxFileBytes`
/// with the format's error. Throws Error when the file cannot be read.
[[nodiscard]] std::vector<std::uint8_t> readLogFile(
    const FramedLogFormat& format, const std::string& path);

/// "" when `recorded` and `current` are resume-compatible (every field
/// except `jobs` equal), else a diagnostic naming the first mismatched
/// parameter and both values, in the format's noun.
[[nodiscard]] std::string describeConfigMismatch(
    const FramedLogFormat& format, const CampaignConfig& recorded,
    const CampaignConfig& current);

/// Refuses to start a log over an existing file: "<label> file already
/// exists: <path> (pass --resume ...)". Resuming must be an explicit
/// decision, not an accident. An empty path names no file.
void refuseExistingLog(std::string_view label, const std::string& path);

/// The append side of one log file, with group commit. `append` writes
/// one frame to the file before it returns, so a killed process loses
/// nothing and every reader sees the frame; it does not fsync. `commit`
/// makes everything appended so far durable with one fsync. A log also
/// commits on its own at the first append at least `kCommitWindow` after
/// its last commit, before writing that append's frame; an owner commits
/// explicitly before it reports the campaign intact. Destroying the
/// handle does not commit. Callers serialize appends and commits.
class FramedLogFile {
 public:
  /// The longest a written frame waits for a commit while appends keep
  /// coming: what a power loss (not a kill) can take from a running
  /// campaign, and all of it is re-measured on resume.
  static constexpr std::chrono::milliseconds kCommitWindow{100};

  /// Writes `header` as a fresh file at `path` (temp, fsync, rename) and
  /// opens it for appending. Refuses to overwrite an existing file
  /// (refuseExistingLog).
  [[nodiscard]] static FramedLogFile create(
      const FramedLogFormat& format, const std::string& path,
      std::span<const std::uint8_t> header);

  /// Reopens `path` for appending. `fileBytes` is the file as read and
  /// `validBytes` its decoded valid prefix; a torn tail beyond it is
  /// first cut off by atomically rewriting the prefix, so the append
  /// stream continues from a clean frame boundary. A prefix that was not
  /// rewritten may not be on disk yet (its writer was killed before a
  /// commit), so the next commit fsyncs it.
  [[nodiscard]] static FramedLogFile reopen(
      const FramedLogFormat& format, const std::string& path,
      std::span<const std::uint8_t> fileBytes, std::size_t validBytes);

  FramedLogFile(FramedLogFile&& other) noexcept;
  FramedLogFile& operator=(FramedLogFile&&) = delete;
  ~FramedLogFile();

  /// Commits first when the window has passed, then writes one encoded
  /// frame (truncated back on a failed write).
  void append(std::span<const std::uint8_t> frame);

  /// fsyncs everything appended since the last commit; a no-op when
  /// nothing was. On failure the file is truncated back to its last
  /// commit and Error("<noun> fsync failed: <path>: <errno>") propagates.
  void commit();

 private:
  FramedLogFile(const char* label, std::string path, int fd,
                std::uint64_t size, bool synced);

  const char* label_;
  std::string path_;
  int fd_;
  std::uint64_t size_;       ///< Bytes in the file.
  std::uint64_t committed_;  ///< Bytes in the file at the last commit.
  bool synced_;              ///< Every byte of the file is on disk.
  std::chrono::steady_clock::time_point lastCommit_;
};

}  // namespace nodebench::campaign
