#include "supervise/journal.hpp"

#include <utility>

#include "campaign/shard.hpp"
#include "core/utf8.hpp"

namespace nodebench::supervise {

using campaign::PayloadReader;
using campaign::PayloadWriter;

namespace {

/// Frame cap sized like the campaign journal's: an event is a few
/// integers plus one incident string. The file cap is lower because even
/// a pathological campaign journals a few thousand events.
constexpr campaign::FramedLogFormat kSupervisorFormat{
    .magic = "NBSV",
    .version = 1,
    .label = "supervisor journal",
    .recordNoun = "event",
    .maxFrameBytes = 1u << 20,
    .maxFileBytes = 64ull << 20,
    .tail = campaign::TailPolicy::Truncate,
    .shardSpec = false,
    .corrupt = &campaign::makeError<SupervisorJournalError>,
};

SupervisorEvent readEvent(PayloadReader& r, std::uint32_t shards) {
  SupervisorEvent event;
  const std::uint32_t kind = r.u32();
  if (kind < 1 || kind > 4) {
    throw campaign::JournalCorruptError("supervisor event kind " +
                                        std::to_string(kind) +
                                        " out of range");
  }
  event.kind = static_cast<EventKind>(kind);
  event.shard = r.u32();
  event.attempt = r.u32();
  event.pid = r.u64();
  event.detail = r.string();
  if (!validUtf8(event.detail)) {
    throw campaign::JournalCorruptError(
        "supervisor event carries invalid UTF-8 in its detail field");
  }
  if (event.shard >= shards) {
    throw campaign::JournalCorruptError(
        "supervisor event names shard " + std::to_string(event.shard) +
        " but the campaign has " + std::to_string(shards) + " shard(s)");
  }
  if (!r.atEnd()) {
    throw campaign::JournalCorruptError(
        "supervisor event carries trailing bytes");
  }
  return event;
}

}  // namespace

bool SupervisorConfig::operator==(const SupervisorConfig& o) const {
  return campaign::describeConfigMismatch(campaign, o.campaign).empty() &&
         shards == o.shards && maxAttempts == o.maxAttempts &&
         backoffBaseMs == o.backoffBaseMs && backoffCapMs == o.backoffCapMs;
}

std::string describeSupervisorConfigMismatch(const SupervisorConfig& recorded,
                                             const SupervisorConfig& current) {
  const std::string campaignMismatch = campaign::describeConfigMismatch(
      kSupervisorFormat, recorded.campaign, current.campaign);
  if (!campaignMismatch.empty()) {
    return campaignMismatch;
  }
  const auto diff = [](const std::string& param, std::uint32_t was,
                       std::uint32_t now) {
    return "supervisor configuration mismatch: " + param + " was " +
           std::to_string(was) + " when the campaign started but is " +
           std::to_string(now) +
           " in this run; rerun with the original parameters or start a "
           "fresh campaign";
  };
  if (recorded.shards != current.shards) {
    return diff("--shards", recorded.shards, current.shards);
  }
  if (recorded.maxAttempts != current.maxAttempts) {
    return diff("--max-attempts", recorded.maxAttempts, current.maxAttempts);
  }
  if (recorded.backoffBaseMs != current.backoffBaseMs) {
    return diff("--backoff-base-ms", recorded.backoffBaseMs,
                current.backoffBaseMs);
  }
  if (recorded.backoffCapMs != current.backoffCapMs) {
    return diff("--backoff-cap-ms", recorded.backoffCapMs,
                current.backoffCapMs);
  }
  return {};
}

std::vector<std::uint8_t> SupervisorJournal::encodeHeader(
    const SupervisorConfig& config) {
  PayloadWriter w;
  w.putU32(config.shards);
  w.putU32(config.maxAttempts);
  w.putU32(config.backoffBaseMs);
  w.putU32(config.backoffCapMs);
  return campaign::encodeLogHeader(kSupervisorFormat, config.campaign,
                                   w.bytes());
}

std::vector<std::uint8_t> SupervisorJournal::encodeEvent(
    const SupervisorEvent& event) {
  PayloadWriter w;
  w.putU32(static_cast<std::uint32_t>(event.kind));
  w.putU32(event.shard);
  w.putU32(event.attempt);
  w.putU64(event.pid);
  w.putString(event.detail);
  return campaign::encodeFrame(w.bytes());
}

SupervisorJournal::Decoded SupervisorJournal::decode(
    std::span<const std::uint8_t> bytes) {
  Decoded out;
  campaign::DecodedLog log = campaign::decodeFramedLog(
      kSupervisorFormat, bytes,
      [&](PayloadReader& r) {
        out.events.push_back(readEvent(r, out.config.shards));
      },
      [&](PayloadReader& r) {
        out.config.shards = r.u32();
        out.config.maxAttempts = r.u32();
        out.config.backoffBaseMs = r.u32();
        out.config.backoffCapMs = r.u32();
        if (out.config.shards == 0 ||
            out.config.shards > campaign::kMaxShardCount) {
          throw SupervisorJournalError(
              "supervisor journal header carries an invalid shard count " +
              std::to_string(out.config.shards));
        }
      });
  out.config.campaign = log.config;
  out.validBytes = log.validBytes;
  out.warnings = std::move(log.warnings);
  return out;
}

SupervisorJournal::Decoded SupervisorJournal::load(const std::string& path) {
  return decode(campaign::readLogFile(kSupervisorFormat, path));
}

std::unique_ptr<SupervisorJournal> SupervisorJournal::create(
    const std::string& path, const SupervisorConfig& config) {
  auto journal = std::unique_ptr<SupervisorJournal>(
      new SupervisorJournal(campaign::FramedLogFile::create(
          kSupervisorFormat, path, encodeHeader(config))));
  journal->config_ = config;
  return journal;
}

std::unique_ptr<SupervisorJournal> SupervisorJournal::resume(
    const std::string& path, const SupervisorConfig& current) {
  const std::vector<std::uint8_t> bytes =
      campaign::readLogFile(kSupervisorFormat, path);
  Decoded decoded = decode(bytes);
  const std::string mismatch =
      describeSupervisorConfigMismatch(decoded.config, current);
  if (!mismatch.empty()) {
    throw Error("cannot resume " + path + ": " + mismatch);
  }
  auto journal = std::unique_ptr<SupervisorJournal>(
      new SupervisorJournal(campaign::FramedLogFile::reopen(
          kSupervisorFormat, path, bytes, decoded.validBytes)));
  journal->config_ = decoded.config;
  journal->events_ = std::move(decoded.events);
  journal->warnings_ = std::move(decoded.warnings);
  return journal;
}

void SupervisorJournal::append(const SupervisorEvent& event) {
  // Committed per event, not per window: the supervisor acts on each one
  // (launches, kills, merges) as soon as it is recorded.
  file_.append(encodeEvent(event));
  file_.commit();
  events_.push_back(event);
}

}  // namespace nodebench::supervise
