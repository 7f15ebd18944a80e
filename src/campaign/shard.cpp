#include "campaign/shard.hpp"

#include <algorithm>
#include <utility>

#include "core/json_value.hpp"

namespace nodebench::campaign {

namespace {

/// Defensive cap on manifest grids: the full registry's grid is well
/// under a hundred cells, so anything near this limit is corruption, not
/// an allocation request.
constexpr std::uint32_t kMaxManifestCells = 1u << 16;
constexpr std::uint32_t kManifestVersion = 1;

}  // namespace

ShardSpec parseShardSpec(const std::string& text) {
  const auto fail = [&] {
    throw Error("--shard expects 'i/N' with 0 <= i < N <= " +
                std::to_string(kMaxShardCount) + ", got '" + text + "'");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size()) {
    fail();
  }
  const auto parseU32 = [&](const std::string& part) {
    if (part.empty() || part.size() > 9 ||
        !std::all_of(part.begin(), part.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      fail();
    }
    return static_cast<std::uint32_t>(std::stoul(part));
  };
  ShardSpec spec;
  spec.index = parseU32(text.substr(0, slash));
  spec.count = parseU32(text.substr(slash + 1));
  if (spec.count == 0 || spec.count > kMaxShardCount ||
      spec.index >= spec.count) {
    fail();
  }
  return spec;
}

std::string shardSpecText(const ShardSpec& spec) {
  if (spec.count == 0) {
    return "unsharded";
  }
  return std::to_string(spec.index) + "/" + std::to_string(spec.count);
}

ShardRange shardRangeFor(std::size_t total, const ShardSpec& spec) {
  NB_EXPECTS(spec.count >= 1);
  NB_EXPECTS(spec.index < spec.count);
  const std::size_t base = total / spec.count;
  const std::size_t rem = total % spec.count;
  ShardRange range;
  range.begin = spec.index * base + std::min<std::size_t>(spec.index, rem);
  range.end = range.begin + base + (spec.index < rem ? 1 : 0);
  return range;
}

bool isShardManifest(const CellRecord& record) {
  return record.machine.empty();
}

std::vector<std::uint8_t> encodeManifestPayload(const TableManifest& manifest) {
  NB_EXPECTS(manifest.cells.size() <= kMaxManifestCells);
  NB_EXPECTS(manifest.assigned.begin <= manifest.assigned.end);
  NB_EXPECTS(manifest.assigned.end <= manifest.cells.size());
  PayloadWriter w;
  w.putU32(kManifestVersion);
  w.putU32(manifest.spec.index);
  w.putU32(manifest.spec.count);
  w.putString(manifest.label);
  w.putU32(static_cast<std::uint32_t>(manifest.cells.size()));
  for (const GridCell& cell : manifest.cells) {
    w.putString(cell.machine);
    w.putString(cell.cell);
  }
  w.putU32(static_cast<std::uint32_t>(manifest.assigned.begin));
  w.putU32(static_cast<std::uint32_t>(manifest.assigned.end));
  return w.bytes();
}

TableManifest decodeManifestPayload(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  const std::uint32_t version = r.u32();
  if (version != kManifestVersion) {
    throw JournalCorruptError("unsupported shard manifest version " +
                              std::to_string(version));
  }
  TableManifest out;
  out.spec.index = r.u32();
  out.spec.count = r.u32();
  if (out.spec.count == 0 || out.spec.count > kMaxShardCount ||
      out.spec.index >= out.spec.count) {
    throw JournalCorruptError("shard manifest carries an invalid shard spec " +
                              std::to_string(out.spec.index) + "/" +
                              std::to_string(out.spec.count));
  }
  out.label = r.string();
  const std::uint32_t cellCount = r.u32();
  if (cellCount > kMaxManifestCells) {
    throw JournalCorruptError("shard manifest cell count " +
                              std::to_string(cellCount) + " exceeds the " +
                              std::to_string(kMaxManifestCells) + " limit");
  }
  out.cells.reserve(cellCount);
  for (std::uint32_t i = 0; i < cellCount; ++i) {
    GridCell cell;
    cell.machine = r.string();
    cell.cell = r.string();
    if (cell.machine.empty()) {
      throw JournalCorruptError(
          "shard manifest grid cell carries an empty machine name");
    }
    out.cells.push_back(std::move(cell));
  }
  out.assigned.begin = r.u32();
  out.assigned.end = r.u32();
  if (out.assigned.begin > out.assigned.end ||
      out.assigned.end > out.cells.size()) {
    throw JournalCorruptError("shard manifest assigned range [" +
                              std::to_string(out.assigned.begin) + ", " +
                              std::to_string(out.assigned.end) +
                              ") exceeds its " + std::to_string(cellCount) +
                              "-cell grid");
  }
  if (!r.atEnd()) {
    throw JournalCorruptError("shard manifest carries trailing bytes");
  }
  return out;
}

CellRecord manifestRecord(const TableManifest& manifest) {
  CellRecord record;
  record.machine = "";  // the manifest sentinel: no real cell has one
  record.cell = manifest.label;
  record.attempts = 0;
  record.failed = false;
  record.payload = encodeManifestPayload(manifest);
  return record;
}

// --- ShardPlan ---------------------------------------------------------------

ShardPlan::ShardPlan(const ShardSpec& spec) : spec_(spec) {
  NB_EXPECTS(spec.count >= 1);
  NB_EXPECTS(spec.index < spec.count);
  NB_EXPECTS(spec.count <= kMaxShardCount);
}

void ShardPlan::registerTable(const std::string& label,
                              std::vector<GridCell> cells, Journal* journal) {
  NB_EXPECTS_MSG(cells.size() <= kMaxManifestCells,
                 "table grid exceeds the shard manifest cell limit");
  TableManifest manifest;
  manifest.label = label;
  manifest.spec = spec_;
  manifest.cells = std::move(cells);
  manifest.assigned = shardRangeFor(manifest.cells.size(), spec_);

  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = tables_.find(label);
    if (it != tables_.end()) {
      if (!(it->second == manifest)) {
        throw Error("shard plan already registered table '" + label +
                    "' with a different grid (nodebench bug: table "
                    "enumeration must be deterministic)");
      }
      return;  // perfbench's replay recomputes Tables 5/6 for Table 7
    }
  }

  if (journal != nullptr) {
    if (const CellRecord* existing = journal->find("", label)) {
      // --resume: the manifest landed on the first run. The fingerprint
      // header cannot see a machine-subset change, so the grid itself is
      // re-verified here.
      TableManifest recorded = decodeManifestPayload(existing->payload);
      if (!(recorded == manifest)) {
        throw Error(
            "cannot resume shard journal: the recorded manifest for '" +
            label + "' does not match this run's grid (was the machine "
            "subset or the registry changed?); rerun with the original "
            "parameters or start a fresh shard journal");
      }
    } else {
      journal->append(manifestRecord(manifest));
    }
  }

  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = manifest.assigned.begin; i < manifest.assigned.end;
       ++i) {
    assignedKeys_.insert(
        cellKey(manifest.cells[i].machine, manifest.cells[i].cell));
  }
  tables_.emplace(label, std::move(manifest));
}

bool ShardPlan::assigned(std::string_view machine,
                         std::string_view cell) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return assignedKeys_.find(cellKey(machine, cell)) != assignedKeys_.end();
}

// --- merge -------------------------------------------------------------------

ShardInput readShardInput(const std::string& path) {
  try {
    return {path, readLogFile(kJournalFormat, path)};
  } catch (const JournalCorruptError& e) {
    throw ShardMergeError(e.what());  // an oversized file: not mergeable
  }
}

std::string shardPath(const std::string& base, const ShardSpec& spec) {
  return base + ".shard" + std::to_string(spec.index) + "of" +
         std::to_string(spec.count);
}

namespace {

struct DecodedShard {
  std::string name;
  Journal::Decoded decoded;
  std::vector<TableManifest> manifests;  ///< file order
  std::vector<const CellRecord*> cells;  ///< file order, manifests stripped
};

}  // namespace

MergedCampaign mergeShardJournals(const std::vector<ShardInput>& shards,
                                  const MergeOptions& options) {
  if (shards.empty()) {
    throw ShardMergeError("merge needs at least one shard journal");
  }

  // Decode every input. A shard that resumes cleanly is the bar: torn
  // tails are refused (resume that shard first), as is anything that is
  // not a shard journal at all.
  std::vector<DecodedShard> decoded(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    DecodedShard& d = decoded[i];
    d.name = shards[i].name;
    try {
      d.decoded = Journal::decode(shards[i].bytes);
    } catch (const JournalCorruptError& e) {
      throw ShardMergeError("cannot merge " + d.name + ": " + e.what());
    }
    if (d.decoded.validBytes < shards[i].bytes.size()) {
      throw ShardMergeError(
          "cannot merge " + d.name + ": the shard journal has a torn tail (" +
          (d.decoded.warnings.empty() ? std::string("trailing bytes")
                                      : d.decoded.warnings.front()) +
          "); resume that shard with --resume to finish it first");
    }
    if (d.decoded.config.shardCount == 0) {
      throw ShardMergeError("cannot merge " + d.name +
                            ": not a shard journal (it was recorded without "
                            "--shard)");
    }
  }

  // One shard count, every index exactly once.
  const std::uint32_t count = decoded.front().decoded.config.shardCount;
  std::vector<const DecodedShard*> byIndex(count, nullptr);
  for (const DecodedShard& d : decoded) {
    const CampaignConfig& cfg = d.decoded.config;
    if (cfg.shardCount != count) {
      throw ShardMergeError(
          "cannot merge: " + decoded.front().name + " was recorded as one of " +
          std::to_string(count) + " shard(s) but " + d.name + " as one of " +
          std::to_string(cfg.shardCount));
    }
    const DecodedShard*& slot = byIndex[cfg.shardIndex];
    if (slot != nullptr) {
      throw ShardMergeError("cannot merge: shard " +
                            shardSpecText({cfg.shardIndex, count}) +
                            " appears twice (" + slot->name + " and " + d.name +
                            ")");
    }
    slot = &d;
  }
  // Quarantine records attach structured blame to a gap; one that names a
  // shard the set does not have is a caller bug, refused in any mode.
  const auto quarantineFor = [&](std::uint32_t shard) -> const ShardGap* {
    for (const ShardGap& gap : options.quarantined) {
      if (gap.shard == shard) {
        return &gap;
      }
    }
    return nullptr;
  };
  for (const ShardGap& gap : options.quarantined) {
    if (gap.shard >= count) {
      throw ShardMergeError(
          "cannot merge: the quarantine list names shard " +
          std::to_string(gap.shard) + " but the shard set has only " +
          std::to_string(count) + " shard(s)");
    }
  }

  std::vector<ShardGap> missingShards;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] != nullptr) {
      continue;
    }
    const ShardGap* quarantine = quarantineFor(i);
    if (!options.allowPartial) {
      std::string message =
          "cannot merge: shard " + shardSpecText({i, count}) +
          " is missing from the merge set (" + std::to_string(shards.size()) +
          " of " + std::to_string(count) + " shard journal(s) given)";
      if (quarantine != nullptr) {
        message += "; it was quarantined after " +
                   std::to_string(quarantine->attempts) +
                   " failed attempt(s), last incident: " +
                   quarantine->lastIncident;
      }
      throw ShardMergeError(message);
    }
    ShardGap gap;
    gap.shard = i;
    if (quarantine != nullptr) {
      gap.attempts = quarantine->attempts;
      gap.lastIncident = quarantine->lastIncident;
    }
    missingShards.push_back(std::move(gap));
  }

  // One configuration fingerprint. Shard index differs by construction;
  // everything else (registry, fault plan, seed, --runs, sizes) must
  // match, and the diagnostic names both the parameter and the shard.
  // The reference is the lowest-indexed *present* shard (shard 0 except
  // under --allow-partial when it is a gap).
  std::uint32_t firstPresent = 0;
  while (byIndex[firstPresent] == nullptr) {
    ++firstPresent;  // at least one shard is present: shards is non-empty
  }
  CampaignConfig reference = byIndex[firstPresent]->decoded.config;
  reference.shardIndex = 0;
  for (std::uint32_t i = firstPresent + 1; i < count; ++i) {
    if (byIndex[i] == nullptr) {
      continue;
    }
    CampaignConfig normalized = byIndex[i]->decoded.config;
    normalized.shardIndex = 0;
    const std::string mismatch = describeConfigMismatch(reference, normalized);
    if (!mismatch.empty()) {
      throw ShardMergeError("cannot merge: shard " +
                            shardSpecText({i, count}) + " (" +
                            byIndex[i]->name + ") was recorded under a "
                            "different configuration than " +
                            byIndex[firstPresent]->name + ": " + mismatch);
    }
  }

  // Split manifests from cell records, per shard, preserving file order.
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] == nullptr) {
      continue;
    }
    auto& d = const_cast<DecodedShard&>(*byIndex[i]);
    for (const CellRecord& record : d.decoded.records) {
      if (!isShardManifest(record)) {
        d.cells.push_back(&record);
        continue;
      }
      try {
        TableManifest manifest = decodeManifestPayload(record.payload);
        if (manifest.label != record.cell) {
          throw JournalCorruptError("shard manifest label '" + manifest.label +
                                    "' disagrees with its record key '" +
                                    record.cell + "'");
        }
        if (!(manifest.spec ==
              ShardSpec{d.decoded.config.shardIndex, count})) {
          throw JournalCorruptError(
              "shard manifest spec " + shardSpecText(manifest.spec) +
              " disagrees with the journal header's " +
              shardSpecText({d.decoded.config.shardIndex, count}));
        }
        for (const TableManifest& prior : d.manifests) {
          if (prior.label == manifest.label) {
            throw JournalCorruptError("duplicate shard manifest for '" +
                                      manifest.label + "'");
          }
        }
        d.manifests.push_back(std::move(manifest));
      } catch (const JournalCorruptError& e) {
        throw ShardMergeError("cannot merge " + d.name + ": " + e.what());
      }
    }
  }

  // Every shard must have registered the same tables, in the same order,
  // over the same grids, and declare exactly its canonical slice — a
  // forged or drifted range is how overlaps and gaps would smuggle in.
  // Strict merges compare everyone against the first shard; partial
  // merges take the present shard with the *most* manifests as the grid
  // reference (a gap shard registered nothing) and require every other
  // present shard's manifest list to be a prefix of it.
  const DecodedShard* referenceShard = byIndex[firstPresent];
  if (options.allowPartial) {
    for (std::uint32_t i = firstPresent + 1; i < count; ++i) {
      if (byIndex[i] != nullptr &&
          byIndex[i]->manifests.size() > referenceShard->manifests.size()) {
        referenceShard = byIndex[i];
      }
    }
    if (referenceShard->manifests.empty()) {
      throw ShardMergeError(
          "cannot merge: no present shard registered a table manifest, so "
          "the campaign grid is unknown — nothing to merge, even partially");
    }
  }
  const DecodedShard& first = *referenceShard;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] == nullptr || byIndex[i] == referenceShard) {
      continue;
    }
    const DecodedShard& d = *byIndex[i];
    if (d.manifests.size() != first.manifests.size() &&
        !(options.allowPartial &&
          d.manifests.size() < first.manifests.size())) {
      throw ShardMergeError(
          "cannot merge: " + first.name + " registered " +
          std::to_string(first.manifests.size()) + " table manifest(s) but " +
          d.name + " registered " + std::to_string(d.manifests.size()) +
          " — the shards measured different campaigns");
    }
    for (std::size_t t = 0; t < d.manifests.size(); ++t) {
      if (d.manifests[t].label != first.manifests[t].label) {
        throw ShardMergeError("cannot merge: " + first.name +
                              " registered table '" +
                              first.manifests[t].label + "' where " + d.name +
                              " registered '" + d.manifests[t].label + "'");
      }
      if (d.manifests[t].cells != first.manifests[t].cells) {
        throw ShardMergeError(
            "cannot merge: the '" + d.manifests[t].label + "' grid in " +
            d.name + " does not match the one in " + first.name +
            " (different machine subset or registry?)");
      }
    }
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] == nullptr) {
      continue;
    }
    const DecodedShard& d = *byIndex[i];
    for (const TableManifest& manifest : d.manifests) {
      const ShardRange canonical =
          shardRangeFor(manifest.cells.size(), {i, count});
      if (!(manifest.assigned == canonical)) {
        throw ShardMergeError(
            "cannot merge: shard " + shardSpecText({i, count}) + " (" +
            d.name + ") declares cells [" +
            std::to_string(manifest.assigned.begin) + ", " +
            std::to_string(manifest.assigned.end) + ") of '" + manifest.label +
            "' but the canonical partition assigns it [" +
            std::to_string(canonical.begin) + ", " +
            std::to_string(canonical.end) +
            ") — overlapping or gapped shard ranges cannot be merged");
      }
    }
  }

  // The global grid: tables concatenated in registration order, which is
  // exactly the record order of a single-process --jobs 1 run.
  MergedCampaign out;
  out.config = reference;
  out.config.shardIndex = 0;
  out.config.shardCount = 0;
  out.config.jobs = 1;
  out.shardCount = count;
  out.missingShards = std::move(missingShards);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] != nullptr) {
      out.presentShards.push_back(i);
    }
  }
  std::map<std::string, std::size_t, std::less<>> gridIndex;
  for (const TableManifest& manifest : first.manifests) {
    for (std::size_t j = 0; j < manifest.cells.size(); ++j) {
      const GridCell& cell = manifest.cells[j];
      std::string key = cellKey(cell.machine, cell.cell);
      if (!gridIndex.emplace(std::move(key), out.grid.size()).second) {
        throw ShardMergeError("cannot merge: the campaign grid lists cell (" +
                              cell.machine + ", " + cell.cell + ") twice");
      }
      // Owner: the shard whose canonical slice of this table contains j.
      std::uint32_t owner = 0;
      for (std::uint32_t s = 0; s < count; ++s) {
        const ShardRange r = shardRangeFor(manifest.cells.size(), {s, count});
        if (j >= r.begin && j < r.end) {
          owner = s;
          break;
        }
      }
      out.grid.push_back(cell);
      out.ownerShard.push_back(owner);
    }
  }

  // Index every shard's cell records and prove coverage is exact:
  // each record names a grid cell its shard owns, no duplicates, and
  // every owned cell is present.
  std::vector<std::map<std::string, const CellRecord*, std::less<>>> records(
      count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] == nullptr) {
      continue;
    }
    const DecodedShard& d = *byIndex[i];
    for (const CellRecord* record : d.cells) {
      std::string key = cellKey(record->machine, record->cell);
      const auto git = gridIndex.find(key);
      if (git == gridIndex.end()) {
        throw ShardMergeError("cannot merge: " + d.name +
                              " contains a record for (" + record->machine +
                              ", " + record->cell +
                              ") which is not in the campaign grid");
      }
      const std::uint32_t owner = out.ownerShard[git->second];
      if (owner != i) {
        throw ShardMergeError(
            "cannot merge: cell (" + record->machine + ", " + record->cell +
            ") is assigned to shard " + shardSpecText({owner, count}) +
            " but was recorded by shard " + shardSpecText({i, count}) + " (" +
            d.name + ") — overlapping shard journals cannot be merged");
      }
      if (!records[i].emplace(std::move(key), record).second) {
        throw ShardMergeError("cannot merge: " + d.name +
                              " records cell (" + record->machine + ", " +
                              record->cell + ") twice");
      }
    }
  }
  for (std::size_t g = 0; g < out.grid.size(); ++g) {
    const std::uint32_t owner = out.ownerShard[g];
    const std::string key = cellKey(out.grid[g].machine, out.grid[g].cell);
    if (byIndex[owner] == nullptr ||
        records[owner].find(key) == records[owner].end()) {
      if (options.allowPartial) {
        // A gap, not a refusal: the cell is enumerated, never silently
        // dropped. Covers both an absent shard and a present-but-
        // incomplete journal (a salvaged attempt).
        out.missingCells.push_back(g);
        continue;
      }
      throw ShardMergeError(
          "cannot merge: shard " + shardSpecText({owner, count}) + " (" +
          byIndex[owner]->name + ") has not measured its assigned cell (" +
          out.grid[g].machine + ", " + out.grid[g].cell +
          "); resume that shard with --resume to finish it first");
    }
  }
  out.partial = !out.missingShards.empty() || !out.missingCells.empty();

  // Emit the merged journal: normalized header, then every record in
  // grid-enumeration order — the byte order a single-process --jobs 1
  // run writes. Missing cells (partial mode only) are skipped here and
  // enumerated in the gap manifest instead.
  std::size_t nextMissing = 0;
  out.journalBytes = Journal::encodeHeader(out.config);
  for (std::size_t g = 0; g < out.grid.size(); ++g) {
    if (nextMissing < out.missingCells.size() &&
        out.missingCells[nextMissing] == g) {
      ++nextMissing;
      continue;
    }
    const std::string key = cellKey(out.grid[g].machine, out.grid[g].cell);
    const CellRecord* record = records[out.ownerShard[g]].at(key);
    const std::vector<std::uint8_t> framed = Journal::encodeRecord(*record);
    out.journalBytes.insert(out.journalBytes.end(), framed.begin(),
                            framed.end());
  }
  return out;
}

std::string renderGapManifest(const MergedCampaign& merged) {
  // Minimal stable JSON: sorted arrays, no timestamps, two-space indent —
  // reruns of the same partial campaign produce byte-identical manifests.
  std::string json = "{\n";
  json += "  \"schema\": \"nodebench-gap-manifest-v1\",\n";
  json += "  \"shards\": " + std::to_string(merged.shardCount) + ",\n";
  json += "  \"present_shards\": [";
  for (std::size_t i = 0; i < merged.presentShards.size(); ++i) {
    json += (i ? ", " : "") + std::to_string(merged.presentShards[i]);
  }
  json += "],\n";
  json += "  \"missing_shards\": [";
  for (std::size_t i = 0; i < merged.missingShards.size(); ++i) {
    const ShardGap& gap = merged.missingShards[i];
    json += i ? ",\n    " : "\n    ";
    json += "{\"shard\": " + std::to_string(gap.shard) +
            ", \"attempts\": " + std::to_string(gap.attempts) +
            ", \"last_incident\": ";
    appendJsonString(json, gap.lastIncident);
    json += "}";
  }
  json += merged.missingShards.empty() ? "],\n" : "\n  ],\n";
  json += "  \"total_cells\": " + std::to_string(merged.grid.size()) + ",\n";
  json += "  \"present_cells\": " +
          std::to_string(merged.grid.size() - merged.missingCells.size()) +
          ",\n";
  json += "  \"missing_cells\": [";
  for (std::size_t i = 0; i < merged.missingCells.size(); ++i) {
    const std::size_t g = merged.missingCells[i];
    json += i ? ",\n    " : "\n    ";
    json += "{\"machine\": ";
    appendJsonString(json, merged.grid[g].machine);
    json += ", \"cell\": ";
    appendJsonString(json, merged.grid[g].cell);
    json += ", \"shard\": " + std::to_string(merged.ownerShard[g]) + "}";
  }
  json += merged.missingCells.empty() ? "]\n" : "\n  ]\n";
  json += "}\n";
  return json;
}

}  // namespace nodebench::campaign
