#include "campaign/journal.hpp"

#include <cstdlib>
#include <utility>

#include "core/utf8.hpp"
#include "trace/trace.hpp"

namespace nodebench::campaign {

namespace {

std::string utf8Checked(std::string value, const char* what) {
  if (!validUtf8(value)) {
    throw JournalCorruptError(std::string("journal record carries invalid "
                                          "UTF-8 in its ") +
                              what + " field");
  }
  return value;
}

CellRecord readCellRecord(PayloadReader& r) {
  CellRecord record;
  record.machine = utf8Checked(r.string(), "machine");
  record.cell = utf8Checked(r.string(), "cell");
  record.attempts = r.u32();
  const std::uint32_t failed = r.u32();
  if (failed > 1) {
    throw JournalCorruptError("journal record 'failed' flag out of range");
  }
  record.failed = failed == 1;
  record.error = utf8Checked(r.string(), "error");
  const std::uint32_t blobLen = r.u32();
  record.payload = r.blob(blobLen);
  if (!r.atEnd()) {
    throw JournalCorruptError("journal record carries trailing bytes");
  }
  return record;
}

void traceJournalEvent(trace::Category category, std::uint64_t bytes) {
  if (trace::TraceBuffer* tb = trace::current()) {
    trace::Event e;
    e.category = category;
    e.actorKind = trace::ActorKind::Campaign;
    e.actor = 0;
    e.bytes = bytes;
    tb->event(e);
    tb->count(category == trace::Category::JournalAppend
                  ? "campaign.records appended"
                  : "campaign.records replayed");
  }
}

}  // namespace

std::string cellKey(std::string_view machine, std::string_view cell) {
  std::string key;
  key.reserve(machine.size() + 1 + cell.size());
  key.append(machine);
  key.push_back('\x1f');
  key.append(cell);
  return key;
}

void putSummary(PayloadWriter& w, const Summary& s) {
  w.putU64(static_cast<std::uint64_t>(s.count));
  w.putF64(s.mean);
  w.putF64(s.stddev);
  w.putF64(s.min);
  w.putF64(s.max);
}

Summary readSummary(PayloadReader& r) {
  Summary s;
  s.count = static_cast<std::size_t>(r.u64());
  s.mean = r.f64();
  s.stddev = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  return s;
}

std::string describeConfigMismatch(const CampaignConfig& recorded,
                                   const CampaignConfig& current) {
  return describeConfigMismatch(kJournalFormat, recorded, current);
}

// --- encode / decode ---------------------------------------------------------

std::vector<std::uint8_t> Journal::encodeHeader(const CampaignConfig& config) {
  return encodeLogHeader(kJournalFormat, config);
}

std::vector<std::uint8_t> Journal::encodeRecord(const CellRecord& record) {
  PayloadWriter w;
  w.putString(record.machine);
  w.putString(record.cell);
  w.putU32(record.attempts);
  w.putU32(record.failed ? 1 : 0);
  w.putString(record.error);
  w.putU32(static_cast<std::uint32_t>(record.payload.size()));
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.insert(bytes.end(), record.payload.begin(), record.payload.end());
  return encodeFrame(bytes);
}

Journal::Decoded Journal::decode(std::span<const std::uint8_t> bytes) {
  Decoded out;
  const auto readRecord = [&](PayloadReader& r) {
    out.records.push_back(readCellRecord(r));
  };
  DecodedLog log = decodeFramedLog(kJournalFormat, bytes, readRecord);
  out.config = log.config;
  out.validBytes = log.validBytes;
  out.warnings = std::move(log.warnings);
  return out;
}

// --- Journal lifecycle -------------------------------------------------------

std::unique_ptr<Journal> Journal::create(const std::string& path,
                                         const CampaignConfig& config) {
  auto journal = std::unique_ptr<Journal>(new Journal(
      FramedLogFile::create(kJournalFormat, path, encodeHeader(config))));
  journal->config_ = config;
  return journal;
}

std::unique_ptr<Journal> Journal::resume(const std::string& path,
                                         const CampaignConfig& current) {
  const std::vector<std::uint8_t> bytes = readLogFile(kJournalFormat, path);
  Decoded decoded = decode(bytes);
  const std::string mismatch =
      describeConfigMismatch(decoded.config, current);
  if (!mismatch.empty()) {
    throw JournalConfigMismatchError("cannot resume " + path + ": " +
                                     mismatch);
  }
  auto journal = std::unique_ptr<Journal>(new Journal(FramedLogFile::reopen(
      kJournalFormat, path, bytes, decoded.validBytes)));
  journal->config_ = decoded.config;
  journal->warnings_ = std::move(decoded.warnings);
  for (CellRecord& record : decoded.records) {
    std::string key = cellKey(record.machine, record.cell);
    journal->records_.emplace(std::move(key), std::move(record));
  }
  return journal;
}

const CellRecord* Journal::find(std::string_view machine,
                                std::string_view cell) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(cellKey(machine, cell));
  if (it == records_.end()) {
    return nullptr;
  }
  traceJournalEvent(trace::Category::JournalReplay,
                    it->second.payload.size());
  // Records are never mutated or erased after insertion, so the pointer
  // stays valid outside the lock (std::map nodes are address-stable).
  return &it->second;
}

void Journal::append(CellRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string key = cellKey(record.machine, record.cell);
  if (records_.find(key) != records_.end()) {
    return;  // idempotent: `table all` recomputes Tables 5/6 for Table 7
  }
  const std::vector<std::uint8_t> framed = encodeRecord(record);
  file_.append(framed);
  traceJournalEvent(trace::Category::JournalAppend, framed.size());
  const bool isCell = !record.machine.empty();
  records_.emplace(std::move(key), std::move(record));
  if (!isCell) {
    // Shard manifests (machine == "") are bookkeeping, not measurements:
    // they neither count toward --crash-after-cell nor toward
    // appendedThisProcess(), so "crash after N cells" still means cells.
    return;
  }
  ++appended_;
  if (crashAfter_ >= 0 &&
      appended_ >= static_cast<std::size_t>(crashAfter_)) {
    // Crash-injection hook: simulate an operator kill / OOM at an
    // arbitrary campaign point. The record just written is in the file
    // but not committed; everything in flight is lost, as in a real
    // crash.
    std::_Exit(kCrashExitCode);
  }
}

void Journal::commit() {
  const std::lock_guard<std::mutex> lock(mu_);
  file_.commit();
}

std::size_t Journal::recordCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::size_t Journal::cellRecordCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, record] : records_) {
    if (!record.machine.empty()) {
      ++n;
    }
  }
  return n;
}

std::size_t Journal::appendedThisProcess() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

}  // namespace nodebench::campaign
