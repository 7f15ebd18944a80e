#include "campaign/framed_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "campaign/io.hpp"
#include "campaign/shard.hpp"
#include "core/checksum.hpp"

namespace nodebench::campaign {

namespace {

/// Defensive decode limit: a string longer than any machine/cell/error
/// text is treated as corruption, not an allocation request.
constexpr std::uint32_t kMaxStringBytes = 1u << 16;
constexpr std::size_t kPrefixBytes = 8;   ///< magic + version
constexpr std::size_t kFrameOverhead = 8;  ///< len + crc32

void appendU32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xffu));
  }
}

std::uint32_t readU32At(std::span<const std::uint8_t> bytes, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

/// Checks the frame at `pos`: "" with `payload` set when it is intact,
/// else what is wrong with it, phrased with the frame's noun.
std::string checkFrame(std::span<const std::uint8_t> bytes, std::size_t pos,
                       std::uint32_t maxFrameBytes, const std::string& noun,
                       std::span<const std::uint8_t>& payload) {
  const std::size_t remaining = bytes.size() - pos;
  if (remaining < kFrameOverhead) {
    return "incomplete " + noun + " frame";
  }
  const std::uint32_t len = readU32At(bytes, pos);
  const std::uint32_t crc = readU32At(bytes, pos + 4);
  if (len > maxFrameBytes) {
    return noun + " length " + std::to_string(len) + " exceeds the " +
           std::to_string(maxFrameBytes) + "-byte limit";
  }
  if (remaining - kFrameOverhead < len) {
    return noun + " extends past end of file";
  }
  payload = bytes.subspan(pos + kFrameOverhead, len);
  if (crc32(payload) != crc) {
    return noun + " checksum mismatch";
  }
  return {};
}

[[noreturn]] void throwCorrupt(const FramedLogFormat& format,
                               const std::string& what) {
  std::rethrow_exception(format.corrupt(what));
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

// --- PayloadWriter / PayloadReader ------------------------------------------

void PayloadWriter::putU32(std::uint32_t value) { appendU32(bytes_, value); }

void PayloadWriter::putU64(std::uint64_t value) {
  putU32(static_cast<std::uint32_t>(value));
  putU32(static_cast<std::uint32_t>(value >> 32));
}

void PayloadWriter::putF64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  putU64(bits);
}

void PayloadWriter::putString(std::string_view s) {
  NB_EXPECTS(s.size() <= kMaxStringBytes);
  putU32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void PayloadReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw JournalCorruptError("journal payload truncated: wanted " +
                              std::to_string(n) + " byte(s) at offset " +
                              std::to_string(pos_));
  }
}

std::uint32_t PayloadReader::u32() {
  need(4);
  const std::uint32_t v = readU32At(bytes_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::string PayloadReader::string() {
  const std::uint32_t len = u32();
  if (len > kMaxStringBytes) {
    throw JournalCorruptError("journal string length " + std::to_string(len) +
                              " exceeds the " +
                              std::to_string(kMaxStringBytes) + "-byte limit");
  }
  need(len);
  std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::vector<std::uint8_t> PayloadReader::blob(std::uint32_t len) {
  need(len);
  const auto first = bytes_.begin() + static_cast<std::ptrdiff_t>(pos_);
  std::vector<std::uint8_t> out(first, first + len);
  pos_ += len;
  return out;
}

// --- encode ------------------------------------------------------------------

std::vector<std::uint8_t> encodeFrame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameOverhead + payload.size());
  appendU32(out, static_cast<std::uint32_t>(payload.size()));
  appendU32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> encodeLogHeader(
    const FramedLogFormat& format, const CampaignConfig& config,
    std::span<const std::uint8_t> extension) {
  NB_EXPECTS_MSG(format.shardSpec || config.shardCount == 0,
                 "this log format has no shard-spec header extension");
  PayloadWriter w;
  w.putU64(config.registryHash);
  w.putU64(config.faultPlanHash);
  w.putU64(config.seed);
  w.putU32(config.runs);
  w.putU32(config.jobs);
  w.putU32(config.cellRetries);
  w.putU64(config.cpuArrayBytes);
  w.putU64(config.gpuArrayBytes);
  w.putU64(config.mpiMessageSize);
  if (config.shardCount != 0) {
    // Written only when sharded, so unsharded (and merged) files stay
    // byte-identical to the pre-shard format.
    w.putU32(config.shardIndex);
    w.putU32(config.shardCount);
  }
  std::vector<std::uint8_t> payload = w.bytes();
  payload.insert(payload.end(), extension.begin(), extension.end());

  std::vector<std::uint8_t> out(format.magic.begin(), format.magic.end());
  appendU32(out, format.version);
  const std::vector<std::uint8_t> framed = encodeFrame(payload);
  out.insert(out.end(), framed.begin(), framed.end());
  return out;
}

// --- decode ------------------------------------------------------------------

DecodedLog decodeFramedLog(const FramedLogFormat& format,
                           std::span<const std::uint8_t> bytes,
                           const PayloadParser& readRecord,
                           const PayloadParser& readHeaderExtension) {
  const std::string label = format.label;
  const auto fail = [&](const std::string& problem) {
    throwCorrupt(format, label + ": " + problem);
  };
  if (bytes.size() < kPrefixBytes ||
      std::memcmp(bytes.data(), format.magic.data(), 4) != 0) {
    throwCorrupt(format, "not a nodebench " + label + " (bad magic bytes)");
  }
  const std::uint32_t version = readU32At(bytes, 4);
  if (version != format.version) {
    throwCorrupt(format, "unsupported " + label + " schema version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(format.version) + ")");
  }

  // Header frame: mandatory under every tail policy. Without the
  // configuration fingerprint, no record could be trusted to belong to
  // this campaign.
  DecodedLog out;
  std::size_t pos = kPrefixBytes;
  std::span<const std::uint8_t> payload;
  if (std::string problem =
          checkFrame(bytes, pos, format.maxFrameBytes, "header", payload);
      !problem.empty()) {
    fail(problem);
  }
  PayloadReader header(payload);
  bool sharded = false;
  try {
    CampaignConfig& c = out.config;
    c.registryHash = header.u64();
    c.faultPlanHash = header.u64();
    c.seed = header.u64();
    c.runs = header.u32();
    c.jobs = header.u32();
    c.cellRetries = header.u32();
    c.cpuArrayBytes = header.u64();
    c.gpuArrayBytes = header.u64();
    c.mpiMessageSize = header.u64();
    sharded = format.shardSpec && !header.atEnd();
    if (sharded) {
      c.shardIndex = header.u32();
      c.shardCount = header.u32();
    }
    if (readHeaderExtension) {
      readHeaderExtension(header);
    }
  } catch (const JournalCorruptError& e) {
    fail(e.what());
  }
  if (sharded && (out.config.shardCount == 0 ||
                  out.config.shardCount > kMaxShardCount ||
                  out.config.shardIndex >= out.config.shardCount)) {
    fail("header carries an invalid shard spec " +
         std::to_string(out.config.shardIndex) + "/" +
         std::to_string(out.config.shardCount));
  }
  if (!header.atEnd()) {
    fail("header carries unexpected bytes");
  }
  pos += kFrameOverhead + payload.size();
  out.validBytes = pos;

  // Record frames, in order, until the first invalid one.
  std::size_t kept = 0;
  while (pos < bytes.size()) {
    std::string problem = checkFrame(bytes, pos, format.maxFrameBytes,
                                     format.recordNoun, payload);
    if (problem.empty()) {
      try {
        PayloadReader r(payload);
        readRecord(r);
      } catch (const JournalCorruptError& e) {
        problem = e.what();
      }
    }
    if (!problem.empty()) {
      if (format.tail == TailPolicy::Refuse) {
        fail(problem);
      }
      out.warnings.push_back(
          "torn tail truncated: " + problem + "; dropped " +
          std::to_string(bytes.size() - pos) + " trailing byte(s), kept " +
          std::to_string(kept) + " valid " + format.recordNoun + "(s)");
      break;
    }
    pos += kFrameOverhead + payload.size();
    out.validBytes = pos;
    ++kept;
  }
  return out;
}

std::vector<std::uint8_t> readLogFile(const FramedLogFormat& format,
                                      const std::string& path) {
  const std::string file = std::string(format.label) + " file";
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw Error("cannot open " + file + ": " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    throw Error("cannot stat " + file + ": " + path);
  }
  if (static_cast<std::uintmax_t>(size) > format.maxFileBytes) {
    throwCorrupt(format, file + " " + path + " is implausibly large (" +
                             std::to_string(size) + " bytes)");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw Error("failed reading " + file + ": " + path);
  }
  return bytes;
}

std::string describeConfigMismatch(const FramedLogFormat& format,
                                   const CampaignConfig& recorded,
                                   const CampaignConfig& current) {
  const std::string label = format.label;
  const auto diff = [&](const std::string& param, const std::string& was,
                        const std::string& now) {
    return label + " configuration mismatch: " + param + " was " + was +
           " when the " + label + " was recorded but is " + now +
           " in this run; rerun with the original parameters or start a "
           "fresh " + label;
  };
  const auto number = [](std::uint64_t v) { return std::to_string(v); };
  if (recorded.registryHash != current.registryHash) {
    return diff("the machine registry", hex(recorded.registryHash),
                hex(current.registryHash));
  }
  if (recorded.faultPlanHash != current.faultPlanHash) {
    return diff("the fault plan (--faults)", hex(recorded.faultPlanHash),
                hex(current.faultPlanHash));
  }
  if (recorded.seed != current.seed) {
    return diff("the fault-plan seed", number(recorded.seed),
                number(current.seed));
  }
  if (recorded.runs != current.runs) {
    return diff("--runs", number(recorded.runs), number(current.runs));
  }
  if (recorded.cellRetries != current.cellRetries) {
    return diff("the cell retry budget", number(recorded.cellRetries),
                number(current.cellRetries));
  }
  if (recorded.cpuArrayBytes != current.cpuArrayBytes) {
    return diff("the CPU array size (bytes)", number(recorded.cpuArrayBytes),
                number(current.cpuArrayBytes));
  }
  if (recorded.gpuArrayBytes != current.gpuArrayBytes) {
    return diff("the GPU array size (bytes)", number(recorded.gpuArrayBytes),
                number(current.gpuArrayBytes));
  }
  if (recorded.mpiMessageSize != current.mpiMessageSize) {
    return diff("the MPI message size (bytes)",
                number(recorded.mpiMessageSize),
                number(current.mpiMessageSize));
  }
  if (recorded.shardIndex != current.shardIndex ||
      recorded.shardCount != current.shardCount) {
    return diff("the shard spec (--shard)",
                shardSpecText({recorded.shardIndex, recorded.shardCount}),
                shardSpecText({current.shardIndex, current.shardCount}));
  }
  // `jobs` is deliberately not compared — output is byte-identical at any
  // worker count, so resuming at a different --jobs is safe.
  return {};
}

// --- FramedLogFile -----------------------------------------------------------

namespace {

int openForAppend(const std::string& path, const char* label) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    throw Error(std::string("cannot reopen ") + label +
                " for appending: " + path + ": " + std::strerror(errno));
  }
  return fd;
}

}  // namespace

FramedLogFile::FramedLogFile(const char* label, std::string path, int fd,
                             std::uint64_t size, bool synced)
    : label_(label),
      path_(std::move(path)),
      fd_(fd),
      size_(size),
      committed_(size),
      synced_(synced),
      lastCommit_(std::chrono::steady_clock::now()) {}

FramedLogFile FramedLogFile::create(const FramedLogFormat& format,
                                    const std::string& path,
                                    std::span<const std::uint8_t> header) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) {
    throw Error(std::string(format.label) + " file already exists: " + path +
                " (pass --resume to continue the recorded campaign, or "
                "remove the file to start fresh)");
  }
  io::atomicWrite(path, header, format.label);
  return FramedLogFile(format.label, path, openForAppend(path, format.label),
                       header.size(), /*synced=*/true);
}

FramedLogFile FramedLogFile::reopen(const FramedLogFormat& format,
                                    const std::string& path,
                                    std::span<const std::uint8_t> fileBytes,
                                    std::size_t validBytes) {
  const bool rewrite = validBytes < fileBytes.size();
  if (rewrite) {
    io::atomicWrite(path, fileBytes.first(validBytes), format.label);
  }
  return FramedLogFile(format.label, path, openForAppend(path, format.label),
                       validBytes, /*synced=*/rewrite);
}

FramedLogFile::FramedLogFile(FramedLogFile&& other) noexcept
    : label_(other.label_),
      path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      committed_(other.committed_),
      synced_(other.synced_),
      lastCommit_(other.lastCommit_) {}

FramedLogFile::~FramedLogFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void FramedLogFile::append(std::span<const std::uint8_t> frame) {
  if (!synced_ &&
      std::chrono::steady_clock::now() - lastCommit_ >= kCommitWindow) {
    commit();
  }
  io::appendWithRollback(fd_, size_, frame, path_, label_);
  size_ += frame.size();
  synced_ = false;
}

void FramedLogFile::commit() {
  if (synced_) {
    return;
  }
  try {
    io::syncWithRollback(fd_, committed_, path_, label_);
  } catch (...) {
    size_ = committed_;
    throw;
  }
  committed_ = size_;
  synced_ = true;
  lastCommit_ = std::chrono::steady_clock::now();
}

}  // namespace nodebench::campaign
