#pragma once
/// \file merge.hpp
/// \brief NBRS store merge for sharded campaigns.
///
/// The journal merge (campaign/shard.hpp) validates the shard set and
/// rebuilds the global grid; this layer merges the per-shard results
/// stores against that validated plan. Store records are re-ordered
/// into grid-enumeration order (stable within a cell, so a cell's
/// quantity records keep their append order), which is exactly the file
/// order a single-process `--jobs 1 --store` run writes — the merged
/// store is byte-identical to it.
///
/// Failed cells never write store records, so the store merge does not
/// require one record per grid cell; it does refuse records for cells
/// outside the grid or outside the writing shard's slice, duplicate
/// (machine, cell, quantity) keys, and any fingerprint mismatch against
/// the plan.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "stats/store.hpp"

namespace nodebench::stats {

/// Exit code of a partial merge, and so of a supervised campaign that
/// quarantined shards: distinct from success (0), failure (1) and
/// interruption (43), so scripts can tell "partial but explicit" from
/// everything else.
inline constexpr int kPartialCampaignExitCode = 44;

/// One shard's decoded store plus a name for diagnostics.
struct ShardStoreInput {
  std::string name;
  StoreContents contents;
};

/// Reads and strictly decodes one shard store file. Store corruption is
/// rethrown as campaign::ShardMergeError naming the path.
[[nodiscard]] ShardStoreInput loadShardStoreInput(const std::string& path);

/// Validates `stores` against the journal-merge plan and returns the
/// merged store file image (normalized header + records in grid order).
/// Throws campaign::ShardMergeError naming the offending shard/record.
[[nodiscard]] std::vector<std::uint8_t> mergeShardStores(
    const std::vector<ShardStoreInput>& stores,
    const campaign::MergedCampaign& plan);

/// Where a merge writes its artifacts.
struct MergeOutputs {
  std::string journal;  ///< the merged journal
  std::string store;    ///< the merged store; "" merges journals only
  std::string gaps;     ///< partial merge manifest; "" = <journal>.gaps.json

  /// Refuses a journal or store output that already exists: a merge is a
  /// derived artifact, and silently clobbering a previous one is how
  /// stale baselines are born.
  void refuseExisting() const;
};

/// The merge writer of `merge`, `shard --merge-out` and `supervise
/// --merge-out`: reads the shard journals (and, with `out.store`, the
/// shard stores), merges them, and atomically writes the merged journal,
/// the merged store and, for a partial merge, the gap manifest; a
/// complete merge removes a gap manifest left at that path. Returns 0, or
/// kPartialCampaignExitCode when the merge is partial.
int writeMerge(const std::vector<std::string>& journals,
               const std::vector<std::string>& stores,
               const MergeOutputs& out,
               const campaign::MergeOptions& options = {});

}  // namespace nodebench::stats
