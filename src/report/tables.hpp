#pragma once
/// \file tables.hpp
/// \brief Regenerates every table of the paper from the simulated
/// benchmark pipeline.
///
/// `compute*` functions run the benchmarks and return structured rows
/// (consumed by the golden tests and Table 7); `render*` / `build*`
/// functions format them in the paper's layout.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "core/cancel.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "machines/machine.hpp"

namespace nodebench::faults {
class FaultPlan;
}  // namespace nodebench::faults

namespace nodebench::stats {
class ResultStore;
}  // namespace nodebench::stats

namespace nodebench::campaign {
class ShardPlan;
}  // namespace nodebench::campaign

namespace nodebench::report {

/// Shared knobs of the table harnesses. The defaults reproduce the
/// paper's methodology (100 binary runs, >=128 MiB CPU vectors, 1 GiB GPU
/// vectors); tests lower binaryRuns for speed.
struct TableOptions {
  int binaryRuns = 100;
  ByteCount cpuArrayBytes = ByteCount::mib(128);
  ByteCount gpuArrayBytes = ByteCount::gib(1);
  ByteCount mpiMessageSize = ByteCount::bytes(8);
  /// Worker count for the (machine x cell) fan-out; <= 0 selects the
  /// hardware concurrency, 1 runs the cells sequentially. Output is
  /// byte-identical for every value (see DESIGN.md "Parallel harness &
  /// determinism").
  int jobs = 0;
  /// Optional fault plan applied to every measurement (see
  /// faults/fault_plan.hpp). nullptr runs the fair-weather harness with
  /// output byte-identical to a build without the faults library. The
  /// plan must outlive the compute call.
  const faults::FaultPlan* faults = nullptr;
  /// Extra measurement attempts after a failed one before a cell degrades
  /// to "n/a". Retries re-derive their noise seeds deterministically, so
  /// recovered cells are still byte-identical across --jobs values.
  int cellRetries = 2;
  /// Optional crash-safe measurement journal (see campaign/journal.hpp).
  /// When set, every completed cell is persisted before the harness moves
  /// on, and already-journalled cells are replayed bit-exactly instead of
  /// re-measured — so a resumed campaign's tables are byte-identical to
  /// an uninterrupted run. The journal must outlive the compute call.
  campaign::Journal* journal = nullptr;
  /// Optional statistical results store (see stats/store.hpp). When set,
  /// every successful cell's full per-repetition sample vector is
  /// persisted for later `nodebench compare`/`gate` runs. A cell already
  /// present in the store is not re-recorded; a cell the store lacks is
  /// re-*measured* even when the journal could replay its summary —
  /// replayed payloads carry no raw samples, and re-measurement is
  /// bit-identical by the determinism contract. The store must outlive
  /// the compute call.
  stats::ResultStore* store = nullptr;
  /// Optional cooperative cancellation (see core/cancel.hpp): when the
  /// token is set, cells that have not started yet are skipped, cells
  /// already measuring finish and are journalled, and the compute call
  /// then throws CancelledError instead of returning partial rows.
  /// Serves the CLI's SIGINT/SIGTERM handling and the serve daemon's
  /// watchdog/drain. The token must outlive the compute call.
  const CancelToken* cancel = nullptr;
  /// Optional machine-name subset (registry names, exact match): cells
  /// of machines not in the list are neither measured nor rendered. A
  /// serve campaign spec's "machines" field lands here; nullptr measures
  /// the full registry (the CLI default). Must outlive the compute call.
  const std::vector<std::string>* machines = nullptr;
  /// Capped exponential backoff between cell retry attempts, for
  /// transient failures that need time to clear (serve sets these; the
  /// CLI default of 0 retries immediately, the historical behaviour).
  /// Attempt k (k >= 1) sleeps min(retryBackoffMaxMs, retryBackoffBaseMs
  /// << (k - 1)) milliseconds first. Wall-clock only: measured values
  /// are unaffected, so output stays byte-identical.
  int retryBackoffBaseMs = 0;
  int retryBackoffMaxMs = 1000;
  /// Test-only hook (the serve kill/watchdog suites): every cell
  /// measurement sleeps this long before starting, making "the daemon is
  /// mid-request" a deterministic state to hit from the outside. 0 in
  /// production.
  int testCellDelayMs = 0;
  /// Optional shard plan (`--shard i/N`, see campaign/shard.hpp). When
  /// set, each table registers its full cell grid with the plan before
  /// fanning out (journalling the shard manifest) and only the cells of
  /// this shard's slice are measured — the rest are skipped entirely
  /// (no journal record, no incident, zeroed row fields). The merged
  /// artifact is rebuilt by `nodebench merge`. Must outlive the compute
  /// call.
  campaign::ShardPlan* shard = nullptr;
};

/// The campaign-configuration fingerprint of a set of table options: what
/// a journal header records and what `--resume` checks compatibility
/// against. Lives in report (not campaign) because campaign sits below
/// report in the dependency order.
[[nodiscard]] campaign::CampaignConfig campaignConfig(const TableOptions& opt);

/// Outcome of one measured (machine x cell) task under the resilient
/// harness. The compute functions report an incident only for cells that
/// needed more than one attempt or failed outright; failed cells render
/// as "n/a" and every incident feeds the diagnostics appendix.
struct CellIncident {
  std::string machine;
  std::string cell;
  int attempts = 0;
  bool failed = false;
  std::string error;  ///< Error text of the last failing attempt.
};

/// Human-readable diagnostics appendix for the incidents a table run
/// collected. Returns "" when `incidents` is empty, so fault-free runs
/// emit nothing.
[[nodiscard]] std::string renderDiagnostics(
    const std::vector<CellIncident>& incidents);

// --- Table 1: OpenMP environment combinations ------------------------------
[[nodiscard]] Table buildTable1();

// --- Tables 2 / 3: system inventories ---------------------------------------
[[nodiscard]] Table buildTable2();
[[nodiscard]] Table buildTable3();

// --- Table 4: CPU systems ----------------------------------------------------
struct Cpu4Row {
  const machines::Machine* machine = nullptr;
  Summary singleGBps;  ///< Best bound single-thread BabelStream.
  Summary allGBps;     ///< Best full-team BabelStream over Table 1 rows.
  Summary onSocketUs;
  Summary onNodeUs;
};
[[nodiscard]] std::vector<Cpu4Row> computeTable4(
    const TableOptions& opt, std::vector<CellIncident>* incidents = nullptr);
[[nodiscard]] Table renderTable4(
    const std::vector<Cpu4Row>& rows,
    const std::vector<CellIncident>* incidents = nullptr);

// --- Table 5: GPU systems (BabelStream + OSU) -------------------------------
struct Gpu5Row {
  const machines::Machine* machine = nullptr;
  Summary deviceGBps;
  Summary hostToHostUs;
  std::array<std::optional<Summary>, 4> deviceToDeviceUs;  ///< classes A..D
};
[[nodiscard]] std::vector<Gpu5Row> computeTable5(
    const TableOptions& opt, std::vector<CellIncident>* incidents = nullptr);
[[nodiscard]] Table renderTable5(
    const std::vector<Gpu5Row>& rows,
    const std::vector<CellIncident>* incidents = nullptr);

// --- Table 6: GPU systems (Comm|Scope) ---------------------------------------
struct Gpu6Row {
  const machines::Machine* machine = nullptr;
  Summary launchUs;
  Summary waitUs;
  Summary hostDeviceLatencyUs;
  Summary hostDeviceBandwidthGBps;
  std::array<std::optional<Summary>, 4> d2dLatencyUs;  ///< classes A..D
};
[[nodiscard]] std::vector<Gpu6Row> computeTable6(
    const TableOptions& opt, std::vector<CellIncident>* incidents = nullptr);
[[nodiscard]] Table renderTable6(
    const std::vector<Gpu6Row>& rows,
    const std::vector<CellIncident>* incidents = nullptr);

// --- Table 7: per-accelerator min-max summary --------------------------------
/// When `incidents` is given, cells that failed in the Table 5/6 runs are
/// excluded from the min-max ranges instead of polluting them with their
/// zero-initialised placeholders.
[[nodiscard]] Table buildTable7(
    const std::vector<Gpu5Row>& t5, const std::vector<Gpu6Row>& t6,
    const std::vector<CellIncident>* incidents = nullptr);

// --- Tables 8 / 9: software environments --------------------------------------
[[nodiscard]] Table buildTable8();
[[nodiscard]] Table buildTable9();

/// The Table 1 sweep behind Table 4's host bandwidth cell: the best op of
/// each Table 1 environment combination, and the best single-thread and
/// best full-team bandwidth across them.
struct OmpSweepEntry {
  std::string config;
  Summary bestOpGBps;
  std::string bestOpName;
};
struct OmpSweepResult {
  std::vector<OmpSweepEntry> entries;  ///< One per Table 1 row, in order.
  Summary bestSingle;
  Summary bestAll;
  /// Raw per-binary-run draws behind bestSingle and bestAll; filled only
  /// when a sample capture (core/samples.hpp) is active around the sweep.
  std::vector<double> bestSingleSamples;
  std::vector<double> bestAllSamples;
};
/// `seedSalt` perturbs the per-binary noise streams (0 reproduces the
/// historical sweep bit-for-bit); the harness passes a deterministic
/// per-attempt salt on retries.
[[nodiscard]] OmpSweepResult ompSweep(const machines::Machine& m,
                                      const TableOptions& opt,
                                      std::uint64_t seedSalt = 0);

}  // namespace nodebench::report
