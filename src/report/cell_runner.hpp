#pragma once
/// \file cell_runner.hpp
/// \brief The cell-grained measurement harness shared by every measured
/// family in `report/`: Tables 4-6 and the memlab sweep and chase.
///
/// A family lists its grid once, as tasks that each name a machine and a
/// cell, and hands the list to `runGrid`: the list is the shard manifest,
/// the fan-out order and the incident order, so none of them can drift
/// from the others. Each task measures through `runCell`, which composes,
/// in order: cooperative cancellation, shard-slice skip, per-cell trace
/// scope, results-store probe, journal replay, the injectable test delay,
/// and the resilient retry loop with deterministic noise salts — the
/// contract that makes `--jobs`, `--faults`, `--trace`, `--journal
/// --resume`, `--store`, `--shard`, serve and supervise compose for any
/// family built on it. The semantics here are pinned by the
/// campaign/shard/serve test suites and must not drift per family.

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/shard.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/samples.hpp"
#include "faults/fault_plan.hpp"
#include "report/tables.hpp"
#include "stats/store.hpp"
#include "trace/trace.hpp"

namespace nodebench::report::cellrun {

/// The store records one measured cell hands to runCell.
using StoreRecords = std::vector<stats::SampleRecord>;

/// Runs one cell measurement under the resilient retry policy. `body(salt)`
/// measures the cell and returns its values as a `std::array<Summary, N>`;
/// runCell returns them, or nullopt when the cell was skipped (cancelled,
/// or outside this shard's slice) or failed. Attempt 0 runs with salt 0
/// so fault-free output is byte-identical to the historical harness; each
/// retry re-derives a deterministic salt the body folds into its noise
/// seeds. On exhaustion the slot stays `failed`, the caller leaves its
/// row at the zero-initialised value and the renderer degrades the cell
/// to "n/a".
///
/// The values, in order, are the cell's journal payload. Under a campaign
/// journal (opt.journal), an already-journalled cell is *replayed*
/// instead of re-measured: its values are read back bit-exactly from the
/// record and the incident slot is restored so the diagnostics appendix
/// matches too. A freshly measured cell is journalled before the harness
/// moves on — cells are independent (identity-derived seeds), so skipping
/// measured ones cannot shift any other cell's noise streams, which is
/// what makes a resumed campaign byte-identical to an uninterrupted one.
///
/// Under a results store (opt.store), the cell additionally persists its
/// raw per-repetition samples: a SampleCapture is installed around each
/// attempt and `storeSave(capture, values, records)` turns the captured
/// channels into the cell's `storeRecords` store records, which runCell
/// stamps with the cell's machine and name and appends under one store
/// lock. A cell the store holds all of skips that; a cell the store
/// lacks, even one record of (a kill or power loss between its records),
/// is re-measured even when the journal could replay it, because journal
/// payloads carry only summaries — re-measurement reproduces the
/// identical values (identity-derived seeds), the store append writes
/// only the missing records and the journal append below stays an
/// idempotent no-op.
template <typename Body, typename StoreSave>
auto runCell(const TableOptions& opt, const machines::Machine& m,
             const std::string& cell, CellIncident& slot, Body&& body,
             StoreSave&& storeSave, std::size_t storeRecords = 1)
    -> std::optional<std::invoke_result_t<Body&, std::uint64_t>> {
  using Values = std::invoke_result_t<Body&, std::uint64_t>;
  // Cooperative cancellation is cell-grained: a set token skips cells that
  // have not started (this check), cells already past it finish and
  // journal normally, and runGrid throws CancelledError after the
  // fan-out. A skipped slot keeps attempts == 0, so it is neither an
  // incident nor a journal record — a --resume run re-measures exactly
  // the skipped cells and lands byte-identical.
  if (opt.cancel != nullptr && opt.cancel->requested()) {
    return std::nullopt;
  }
  // Shard skip comes before everything else (including the store
  // containsCell probe): a cell outside this shard's slice leaves no
  // journal record, no store record, no incident, and a zeroed row —
  // `nodebench merge` rebuilds the full artifact from the shard set.
  if (opt.shard != nullptr && !opt.shard->assigned(m.info.name, cell)) {
    return std::nullopt;
  }
  slot.machine = m.info.name;
  slot.cell = cell;
  // One trace scope per cell (covering retries): model objects the body
  // constructs capture this buffer, so a traced table run yields one
  // "<machine>/<cell>" process per measurement in the exported trace.
  // Labels are unique within a table's parallel fan-out, which keeps the
  // export deterministic at any --jobs (no-op without --trace/--metrics).
  trace::Scope traceScope(slot.machine + "/" + slot.cell);
  const bool wantStore =
      opt.store != nullptr &&
      !opt.store->containsCell(slot.machine, slot.cell, storeRecords);
  if (opt.journal != nullptr && !wantStore) {
    if (const campaign::CellRecord* rec =
            opt.journal->find(slot.machine, slot.cell)) {
      slot.attempts = static_cast<int>(rec->attempts);
      slot.failed = rec->failed;
      slot.error = rec->error;
      if (rec->failed) {
        return std::nullopt;
      }
      campaign::PayloadReader r(rec->payload);
      Values values;
      for (Summary& s : values) {
        s = campaign::readSummary(r);
      }
      return values;
    }
  }
  if (opt.testCellDelayMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.testCellDelayMs));
  }
  std::optional<SampleCapture> capture;
  std::optional<Values> values;
  const int maxAttempts = std::max(1, opt.cellRetries + 1);
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    if (attempt > 0 && opt.retryBackoffBaseMs > 0) {
      // Capped exponential backoff before each retry. Wall-clock only:
      // the retry's noise salt below is derived from the attempt index,
      // not from time, so backed-off output matches immediate retries.
      const int shift = std::min(attempt - 1, 20);
      const long delay =
          std::min(static_cast<long>(opt.retryBackoffMaxMs),
                   static_cast<long>(opt.retryBackoffBaseMs) << shift);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    ++slot.attempts;
    try {
      if (wantStore) {
        capture.emplace();  // fresh per attempt: no stale samples on retry
      }
      if (opt.faults != nullptr &&
          opt.faults->shouldFailAttempt(slot.machine, slot.cell, attempt)) {
        throw Error("injected flaky-cell failure (attempt " +
                    std::to_string(attempt + 1) + ")");
      }
      const std::uint64_t salt =
          attempt == 0 ? 0
                       : par::taskSeed(0xfa157a7full,
                                       static_cast<std::uint64_t>(attempt));
      values = body(salt);
      slot.failed = false;
      break;
    } catch (const std::exception& e) {
      slot.failed = true;
      slot.error = e.what();
    }
  }
  if (wantStore && values) {
    StoreRecords records;
    storeSave(*capture, *values, records);
    NB_EXPECTS(records.size() == storeRecords);
    for (stats::SampleRecord& rec : records) {
      rec.machine = slot.machine;
      rec.cell = slot.cell;
    }
    opt.store->appendCell(std::move(records));
  }
  if (opt.journal != nullptr) {
    campaign::CellRecord rec;
    rec.machine = slot.machine;
    rec.cell = slot.cell;
    rec.attempts = static_cast<std::uint32_t>(slot.attempts);
    rec.failed = slot.failed;
    rec.error = slot.error;
    if (values) {
      campaign::PayloadWriter w;
      for (const Summary& s : *values) {
        campaign::putSummary(w, s);
      }
      rec.payload = w.bytes();
    }
    opt.journal->append(std::move(rec));
  }
  return values;
}

/// Measures a family's grid. Each task names its machine as `machineIdx`,
/// an index into `ms`, and its harness cell as `cell`, plus whatever else
/// the family needs to measure it. Under a shard plan the task list, in
/// order, is registered as table `label`'s manifest before anything is
/// measured: it is the record order a --jobs 1 journal run writes, which
/// is what the merge reconstructs. Then `measure(machine, task, slot)`
/// runs for every task on opt.jobs workers, where `machine` is the
/// registry machine, or its perturbed copy under a fault plan, and `slot`
/// is the task's own incident slot for runCell; each task must write only
/// its own row fields. Throws CancelledError after the fan-out when the
/// run was cancelled, and otherwise appends the retried or failed cells'
/// incidents to `incidents`, in task order.
template <typename Task, typename Measure>
void runGrid(const TableOptions& opt, const char* label,
             const std::vector<const machines::Machine*>& ms,
             const std::vector<Task>& tasks,
             std::vector<CellIncident>* incidents, Measure&& measure) {
  if (opt.shard != nullptr) {
    std::vector<campaign::GridCell> grid;
    grid.reserve(tasks.size());
    for (const Task& task : tasks) {
      grid.push_back({ms[task.machineIdx]->info.name, task.cell});
    }
    opt.shard->registerTable(label, std::move(grid), opt.journal);
  }
  // Registry machines verbatim without a fault plan (identity preserved
  // for golden tests and Table 7), per-machine perturbed copies under one.
  std::vector<machines::Machine> faulted;
  if (opt.faults != nullptr) {
    faulted.reserve(ms.size());
    for (const machines::Machine* m : ms) {
      faulted.push_back(opt.faults->applyToMachine(*m));
    }
  }
  std::vector<CellIncident> slots(tasks.size());
  par::parallelForEach(
      tasks.size(),
      [&](std::size_t t) {
        const std::size_t mi = tasks[t].machineIdx;
        measure(faulted.empty() ? *ms[mi] : faulted[mi], tasks[t], slots[t]);
      },
      opt.jobs);
  // Every started cell has finished and journalled by now, so this is the
  // safe point to abandon the partial table.
  if (opt.cancel != nullptr) {
    opt.cancel->throwIfRequested();
  }
  if (incidents != nullptr) {
    for (CellIncident& slot : slots) {
      if (slot.attempts > 1 || slot.failed) {
        incidents->push_back(std::move(slot));
      }
    }
  }
}

/// Builds one of a measured cell's store records; runCell fills in the
/// cell's machine and name. The store encoder enforces samples.size() ==
/// summary.count — every channel records exactly one value per binary
/// run, so a full capture always matches.
inline stats::SampleRecord sampleRecord(std::string quantity, std::string unit,
                                        stats::Better better,
                                        const Summary& summary,
                                        std::vector<double> samples) {
  stats::SampleRecord rec;
  rec.quantity = std::move(quantity);
  rec.unit = std::move(unit);
  rec.better = better;
  rec.summary = summary;
  rec.samples = std::move(samples);
  return rec;
}

/// Applies the optional TableOptions machine subset to a registry list,
/// preserving registry order. Unknown names simply select nothing here;
/// callers that must reject them (the serve request decoder) validate
/// against the registry up front.
inline std::vector<const machines::Machine*> filteredMachines(
    std::vector<const machines::Machine*> ms, const TableOptions& opt) {
  if (opt.machines == nullptr) {
    return ms;
  }
  std::vector<const machines::Machine*> out;
  for (const machines::Machine* m : ms) {
    if (std::find(opt.machines->begin(), opt.machines->end(), m->info.name) !=
        opt.machines->end()) {
      out.push_back(m);
    }
  }
  return out;
}

inline bool cellFailed(const std::vector<CellIncident>* incidents,
                       const std::string& machine, const std::string& cell) {
  if (incidents == nullptr) {
    return false;
  }
  return std::any_of(incidents->begin(), incidents->end(),
                     [&](const CellIncident& i) {
                       return i.failed && i.machine == machine &&
                              i.cell == cell;
                     });
}

inline std::string naOr(bool failed, std::string value) {
  return failed ? std::string("n/a") : std::move(value);
}

}  // namespace nodebench::report::cellrun
