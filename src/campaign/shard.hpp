#pragma once
/// \file shard.hpp
/// \brief Distributed sharded campaigns: deterministic grid partitioning,
/// shard manifests, and the fingerprint-validated merge.
///
/// A campaign is a (machine x cell) grid; `--shard i/N` assigns shard `i`
/// a deterministic contiguous slice of every table's grid so N worker
/// *processes* (the `nodebench shard` driver, or hand-launched workers on
/// different hosts) can split one campaign. Each shard writes its own
/// journal + results store whose headers carry the shard spec in the
/// configuration fingerprint, and records a **shard manifest** per table
/// — the ordered cell grid plus this shard's assigned range — because the
/// merge step cannot re-derive the grid from bytes alone (it depends on
/// the machine subset and per-machine link classes).
///
/// `mergeShardJournals` then rebuilds the single-process artifact: it
/// validates every shard against one fingerprint (refusing on mismatch,
/// naming the parameter and the shard), proves the shard set is complete
/// and non-overlapping (exactly indices 0..N-1, identical manifests,
/// every record inside its shard's canonical range, every assigned cell
/// present), and emits a merged journal byte-identical to what a
/// single-process `--jobs 1` run of the same campaign would have written.
/// The determinism contract already proven for `--jobs` (DESIGN.md §7)
/// is what makes that byte-identity possible: cells are independent, so
/// which *process* measures one cannot change its bytes.

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hpp"
#include "core/error.hpp"

namespace nodebench::campaign {

/// Thrown when a shard set cannot be merged: mismatched fingerprints,
/// missing/duplicate shards, overlapping or incomplete cell coverage,
/// torn tails. what() always names the offending shard (and, for
/// fingerprint mismatches, the parameter).
class ShardMergeError : public Error {
 public:
  using Error::Error;
};

/// One shard's identity: `index` of `count` total. count == 0 means
/// "unsharded" (the CampaignConfig default).
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 0;

  [[nodiscard]] bool operator==(const ShardSpec& o) const {
    return index == o.index && count == o.count;
  }
};

/// Hard ceiling on --shard N: far above any useful process fan-out, low
/// enough that a corrupt header cannot demand a billion-entry merge.
inline constexpr std::uint32_t kMaxShardCount = 4096;

/// Parses "i/N" (e.g. "2/8", 0-based index). Throws Error on anything
/// else: i >= N, N == 0, N > kMaxShardCount, trailing garbage.
[[nodiscard]] ShardSpec parseShardSpec(const std::string& text);

/// "i/N", or "unsharded" when count == 0 — the vocabulary mismatch
/// diagnostics use.
[[nodiscard]] std::string shardSpecText(const ShardSpec& spec);

/// One cell of a table's measurement grid, in enumeration order.
struct GridCell {
  std::string machine;
  std::string cell;

  [[nodiscard]] bool operator==(const GridCell& o) const {
    return machine == o.machine && cell == o.cell;
  }
};

/// Half-open index range [begin, end) into a table's grid.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] bool operator==(const ShardRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// The canonical contiguous partition: shard i of N gets
/// floor(total/N) cells plus one more when i < total % N, so the slices
/// tile [0, total) exactly and sizes differ by at most one (the uneven
/// tail). Deterministic — both the planner and the merge validator
/// compute it, so a forged manifest range is detectable.
[[nodiscard]] ShardRange shardRangeFor(std::size_t total, const ShardSpec& spec);

/// A shard manifest: one table's full ordered grid plus the writing
/// shard's assigned slice. Journalled as a special record (machine == ""
/// — impossible for a real cell) before the table's fan-out, so the
/// merge can rebuild the global enumeration order.
struct TableManifest {
  std::string label;  ///< "table 4" / "table 5" / "table 6"
  ShardSpec spec;
  std::vector<GridCell> cells;  ///< full grid, enumeration order
  ShardRange assigned;          ///< this shard's slice of `cells`

  [[nodiscard]] bool operator==(const TableManifest& o) const {
    return label == o.label && spec == o.spec && cells == o.cells &&
           assigned == o.assigned;
  }
};

/// True for the manifest pseudo-records (machine == ""): real cells
/// always carry a registry machine name.
[[nodiscard]] bool isShardManifest(const CellRecord& record);

/// Manifest payload round-trip. The decoder treats the payload as
/// untrusted bytes (it is a fuzz surface through `nodebench merge`) and
/// throws JournalCorruptError on any structural violation.
[[nodiscard]] std::vector<std::uint8_t> encodeManifestPayload(
    const TableManifest& manifest);
[[nodiscard]] TableManifest decodeManifestPayload(
    std::span<const std::uint8_t> payload);

/// The manifest as the CellRecord the journal stores it in.
[[nodiscard]] CellRecord manifestRecord(const TableManifest& manifest);

/// Per-process shard plan, owned by the CLI and consulted by the report
/// harness: `registerTable` is called once per table before its fan-out
/// (journalling the manifest, or verifying an existing one on resume);
/// `assigned` is the per-cell skip check the workers query. Thread-safe:
/// registration happens between fan-outs but workers query concurrently.
class ShardPlan {
 public:
  explicit ShardPlan(const ShardSpec& spec);

  /// Registers `cells` as table `label`'s grid. Appends the manifest
  /// record to `journal` (idempotent; nullptr journal skips persistence),
  /// or — when the journal already holds one, i.e. --resume — verifies
  /// it matches this run's grid and throws Error naming the label when it
  /// does not (a machine-subset change the fingerprint cannot see).
  /// Re-registering the same label with the same cells is a no-op
  /// (perfbench's in-process replay computes Tables 5/6 a second time
  /// for Table 7 under one plan).
  void registerTable(const std::string& label, std::vector<GridCell> cells,
                     Journal* journal);

  /// Whether this shard measures (machine, cell). Cells of a table that
  /// was never registered are not assigned (defensive: the harness always
  /// registers before fanning out).
  [[nodiscard]] bool assigned(std::string_view machine,
                              std::string_view cell) const;

  [[nodiscard]] const ShardSpec& spec() const { return spec_; }

 private:
  ShardSpec spec_;
  mutable std::mutex mu_;
  std::map<std::string, TableManifest> tables_;
  std::set<std::string, std::less<>> assignedKeys_;
};

/// One shard's journal file image, plus a name for diagnostics (the file
/// path at the CLI, a synthetic label in tests and the fuzz target).
struct ShardInput {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

/// Reads a shard journal file with the decoder's size cap. Throws Error
/// when the file is missing/unreadable, naming the path.
[[nodiscard]] ShardInput readShardInput(const std::string& path);

/// Structured diagnostics for one absent shard — the CellIncident of the
/// merge layer. The supervisor fills `attempts`/`lastIncident` from its
/// quarantine record; a hand-run partial merge that simply lacks a file
/// gets the default incident text.
struct ShardGap {
  std::uint32_t shard = 0;    ///< the missing shard's index
  std::uint32_t attempts = 0; ///< failed attempts (0 when unknown)
  std::string lastIncident = "shard journal missing from the merge set";

  [[nodiscard]] bool operator==(const ShardGap& o) const {
    return shard == o.shard && attempts == o.attempts &&
           lastIncident == o.lastIncident;
  }
};

/// Merge policy knobs. `allowPartial` permits absent shard indices (a
/// gap, never a refusal); `quarantined` attaches the supervisor's
/// attempt counts and last incidents to those gaps so every diagnostic
/// and the gap manifest can name *why* a shard is missing. Naming a
/// shard index outside [0, N) is refused even in partial mode.
struct MergeOptions {
  bool allowPartial = false;
  std::vector<ShardGap> quarantined;
};

/// The validated, merged campaign. `journalBytes` is the merged journal
/// file image: the normalized header (shard spec cleared, jobs
/// canonicalized to 1 — the reference single-process run) followed by
/// every cell record in global grid-enumeration order, manifests
/// stripped. Byte-identical to an uninterrupted single-process
/// `--jobs 1 --journal` run of the same campaign — except under
/// `allowPartial` with gaps, where missing cells are skipped (never
/// silently: they are enumerated in `missingCells` and the gap
/// manifest).
struct MergedCampaign {
  CampaignConfig config;  ///< normalized: unsharded, jobs == 1
  std::uint32_t shardCount = 0;  ///< worker count of the merged set
  std::vector<GridCell> grid;  ///< global enumeration order (tables concatenated)
  std::vector<std::uint32_t> ownerShard;  ///< grid[i] measured by shard ownerShard[i]
  std::vector<std::uint8_t> journalBytes;

  bool partial = false;  ///< true iff any shard or cell is missing
  std::vector<std::uint32_t> presentShards;   ///< sorted indices with journals
  std::vector<ShardGap> missingShards;        ///< sorted by shard index
  std::vector<std::size_t> missingCells;      ///< grid indices without records
};

/// Validates and merges a shard set. See ShardMergeError for the refusal
/// contract; every diagnostic names the offending shard. With
/// `options.allowPartial`, absent shards and their cells become gaps
/// instead of refusals; every *present* shard is still validated as
/// strictly as ever (fingerprints, canonical ranges, ownership,
/// duplicates), and an all-shards-present partial merge emits bytes
/// identical to the strict merge.
[[nodiscard]] MergedCampaign mergeShardJournals(
    const std::vector<ShardInput>& shards, const MergeOptions& options = {});

/// Renders the gap manifest: a stable JSON document
/// (`nodebench-gap-manifest-v1`) enumerating the present shards, every
/// missing shard with its attempt count and last incident, and every
/// missing (machine, cell) with its owning shard. Written next to a
/// partial merge so a smaller table is always accompanied by an explicit
/// statement of what is absent and why.
[[nodiscard]] std::string renderGapManifest(const MergedCampaign& merged);

/// The conventional worker journal/store path of shard i of N:
/// "<base>.shard<i>of<N>" — what the `nodebench shard` driver passes its
/// workers and what the demo scripts glob for.
[[nodiscard]] std::string shardPath(const std::string& base,
                                    const ShardSpec& spec);

}  // namespace nodebench::campaign
