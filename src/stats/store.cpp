#include "stats/store.hpp"

#include <sys/stat.h>

#include <utility>

#include "core/utf8.hpp"

namespace nodebench::stats {

namespace {

using campaign::PayloadReader;

/// A record carries a full sample vector (8 bytes per repetition), so
/// the frame cap is far above the journal's: 64 MiB covers ~8.4M
/// samples, three orders of magnitude beyond the paper's 100-run
/// methodology. Anything larger is treated as corruption, not an
/// allocation request.
constexpr campaign::FramedLogFormat kStoreFormat{
    .magic = "NBRS",
    .version = 1,
    .label = "store",
    .recordNoun = "record",
    .maxFrameBytes = 64u << 20,
    .maxFileBytes = 512ull << 20,
    .tail = campaign::TailPolicy::Refuse,
    .shardSpec = true,
    .corrupt = &campaign::makeError<StoreCorruptError>,
};
constexpr std::uint32_t kMaxSampleCount = 1u << 22;

std::string utf8Checked(std::string value, const char* what) {
  if (!validUtf8(value)) {
    throw StoreCorruptError(
        std::string("store record carries invalid UTF-8 in its ") + what +
        " field");
  }
  return value;
}

SampleRecord readSampleRecord(PayloadReader& r) {
  SampleRecord record;
  record.machine = utf8Checked(r.string(), "machine");
  record.cell = utf8Checked(r.string(), "cell");
  record.quantity = utf8Checked(r.string(), "quantity");
  record.unit = utf8Checked(r.string(), "unit");
  const std::uint32_t better = r.u32();
  if (better > 1) {
    throw StoreCorruptError("store record 'better' flag out of range");
  }
  record.better = static_cast<Better>(better);
  record.summary = campaign::readSummary(r);
  const std::uint32_t nSamples = r.u32();
  if (nSamples > kMaxSampleCount) {
    throw StoreCorruptError("store record sample count " +
                            std::to_string(nSamples) + " exceeds the " +
                            std::to_string(kMaxSampleCount) + " limit");
  }
  if (nSamples != record.summary.count) {
    throw StoreCorruptError(
        "store record sample count " + std::to_string(nSamples) +
        " disagrees with its summary count " +
        std::to_string(record.summary.count));
  }
  record.samples.reserve(nSamples);
  for (std::uint32_t i = 0; i < nSamples; ++i) {
    record.samples.push_back(r.f64());
  }
  if (!r.atEnd()) {
    throw StoreCorruptError("store record carries trailing bytes");
  }
  return record;
}

}  // namespace

std::string sampleKey(const SampleRecord& record) {
  std::string key = campaign::cellKey(record.machine, record.cell);
  key.push_back('\x1f');
  key.append(record.quantity);
  return key;
}

std::string describeStoreMismatch(const campaign::CampaignConfig& recorded,
                                  const campaign::CampaignConfig& current) {
  return campaign::describeConfigMismatch(kStoreFormat, recorded, current);
}

// --- encode / decode ---------------------------------------------------------

std::vector<std::uint8_t> ResultStore::encodeHeader(
    const campaign::CampaignConfig& config) {
  return campaign::encodeLogHeader(kStoreFormat, config);
}

std::vector<std::uint8_t> ResultStore::encodeRecord(
    const SampleRecord& record) {
  NB_EXPECTS(record.samples.size() == record.summary.count);
  NB_EXPECTS(record.samples.size() <= kMaxSampleCount);
  campaign::PayloadWriter w;
  w.putString(record.machine);
  w.putString(record.cell);
  w.putString(record.quantity);
  w.putString(record.unit);
  w.putU32(static_cast<std::uint32_t>(record.better));
  campaign::putSummary(w, record.summary);
  w.putU32(static_cast<std::uint32_t>(record.samples.size()));
  for (const double x : record.samples) {
    w.putF64(x);
  }
  return campaign::encodeFrame(w.bytes());
}

StoreContents ResultStore::decode(std::span<const std::uint8_t> bytes) {
  StoreContents out;
  const auto readRecord = [&](PayloadReader& r) {
    out.records.push_back(readSampleRecord(r));
  };
  out.config =
      campaign::decodeFramedLog(kStoreFormat, bytes, readRecord).config;
  return out;
}

// --- ResultStore lifecycle ---------------------------------------------------

std::unique_ptr<ResultStore> ResultStore::create(
    const std::string& path, const campaign::CampaignConfig& config) {
  auto store = std::unique_ptr<ResultStore>(new ResultStore(
      campaign::FramedLogFile::create(kStoreFormat, path,
                                      encodeHeader(config))));
  store->config_ = config;
  return store;
}

std::unique_ptr<ResultStore> ResultStore::attach(
    const std::string& path, const campaign::CampaignConfig& current,
    bool resume) {
  if (!resume) {
    return create(path, current);
  }
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    // Resuming a campaign whose first run predates --store (or crashed
    // before the header landed): start the store fresh.
    return create(path, current);
  }
  // A store being resumed may end in a torn frame (its writer was killed
  // mid-write, or a power loss took what followed the last commit), so
  // this path reads it the way the journal is read: the valid prefix is
  // kept and rewritten, and the cells cut off are re-measured.
  campaign::FramedLogFormat resumeFormat = kStoreFormat;
  resumeFormat.tail = campaign::TailPolicy::Truncate;
  const std::vector<std::uint8_t> bytes =
      campaign::readLogFile(kStoreFormat, path);
  std::vector<SampleRecord> records;
  campaign::DecodedLog log = campaign::decodeFramedLog(
      resumeFormat, bytes,
      [&](PayloadReader& r) { records.push_back(readSampleRecord(r)); });
  const std::string mismatch = describeStoreMismatch(log.config, current);
  if (!mismatch.empty()) {
    throw StoreConfigMismatchError("cannot resume " + path + ": " + mismatch);
  }
  auto store = std::unique_ptr<ResultStore>(
      new ResultStore(campaign::FramedLogFile::reopen(
          kStoreFormat, path, bytes, log.validBytes)));
  store->config_ = log.config;
  store->warnings_ = std::move(log.warnings);
  for (const SampleRecord& record : records) {
    store->recordKeys_.insert(sampleKey(record));
    ++store->cellRecords_[campaign::cellKey(record.machine, record.cell)];
  }
  return store;
}

StoreContents ResultStore::load(const std::string& path) {
  return decode(campaign::readLogFile(kStoreFormat, path));
}

void ResultStore::append(SampleRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  appendLocked(std::move(record));
}

void ResultStore::appendCell(std::vector<SampleRecord> records) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (SampleRecord& record : records) {
    appendLocked(std::move(record));
  }
}

void ResultStore::appendLocked(SampleRecord record) {
  std::string key = sampleKey(record);
  if (recordKeys_.find(key) != recordKeys_.end()) {
    return;  // idempotent: `table all` recomputes Tables 5/6 for Table 7
  }
  file_.append(encodeRecord(record));
  ++cellRecords_[campaign::cellKey(record.machine, record.cell)];
  recordKeys_.insert(std::move(key));
}

bool ResultStore::containsCell(std::string_view machine, std::string_view cell,
                               std::size_t records) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cellRecords_.find(campaign::cellKey(machine, cell));
  return it != cellRecords_.end() && it->second >= records;
}

void ResultStore::commit() {
  const std::lock_guard<std::mutex> lock(mu_);
  file_.commit();
}

std::size_t ResultStore::recordCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recordKeys_.size();
}

}  // namespace nodebench::stats
