#pragma once
/// \file cell_runner.hpp
/// \brief The cell-grained measurement harness shared by every table and
/// benchmark family in `report/`.
///
/// `runCell` composes, in order: cooperative cancellation, shard-slice
/// skip, per-cell trace scope, results-store probe, journal replay, the
/// injectable test delay, and the resilient retry loop with
/// deterministic noise salts — the contract that makes `--jobs`,
/// `--faults`, `--trace`, `--journal --resume`, `--store`, `--shard`,
/// serve and supervise compose for free for any family built on it.
/// Extracted from tables.cpp when the memlab families (sweep, chase)
/// became the second consumer; the semantics here are pinned by the
/// campaign/shard/serve test suites and must not drift per family.

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
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

/// Runs one cell measurement under the resilient retry policy. Attempt 0
/// runs with salt 0 so fault-free output is byte-identical to the
/// historical harness; each retry re-derives a deterministic salt the
/// body folds into its noise seeds. On exhaustion the slot stays
/// `failed`, the row keeps its zero-initialised value and the renderer
/// degrades the cell to "n/a".
///
/// Under a campaign journal (opt.journal), an already-journalled cell is
/// *replayed* instead of re-measured: `load` restores the row fields from
/// the record's bit-exact payload and the incident slot is restored so
/// the diagnostics appendix matches too. A freshly measured cell is
/// persisted via `save` before the harness moves on — cells are
/// independent (identity-derived seeds), so skipping measured ones cannot
/// shift any other cell's noise streams, which is what makes a resumed
/// campaign byte-identical to an uninterrupted one.
///
/// Under a results store (opt.store), the cell additionally persists its
/// raw per-repetition samples: a SampleCapture is installed around each
/// attempt and `storeSave(capture, records)` turns the captured channels
/// into the cell's `storeRecords` store records, which runCell appends
/// under one store lock. A cell the store holds all of skips that; a
/// cell the store lacks, even one record of (a kill or power loss
/// between its records), is re-measured even when the journal could
/// replay it, because journal payloads carry only summaries —
/// re-measurement reproduces the identical values (identity-derived
/// seeds), the store append writes only the missing records and the
/// journal append below stays an idempotent no-op.
template <typename Body, typename Save, typename Load, typename StoreSave>
void runCell(const TableOptions& opt, const machines::Machine& m,
             std::string cell, CellIncident& slot, Body&& body, Save&& save,
             Load&& load, StoreSave&& storeSave,
             std::size_t storeRecords = 1) {
  // Cooperative cancellation is cell-grained: a set token skips cells that
  // have not started (this check), cells already past it finish and
  // journal normally, and the compute function throws CancelledError
  // after the fan-out. A skipped slot keeps attempts == 0, so it is
  // neither an incident nor a journal record — a --resume run re-measures
  // exactly the skipped cells and lands byte-identical.
  if (opt.cancel != nullptr && opt.cancel->requested()) {
    return;
  }
  // Shard skip comes before everything else (including the store
  // containsCell probe): a cell outside this shard's slice leaves no
  // journal record, no store record, no incident, and a zeroed row —
  // `nodebench merge` rebuilds the full artifact from the shard set.
  if (opt.shard != nullptr && !opt.shard->assigned(m.info.name, cell)) {
    return;
  }
  slot.machine = m.info.name;
  slot.cell = std::move(cell);
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
      if (!rec->failed) {
        campaign::PayloadReader r(rec->payload);
        load(r);
      }
      return;
    }
  }
  if (opt.testCellDelayMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.testCellDelayMs));
  }
  std::optional<SampleCapture> capture;
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
      body(salt);
      slot.failed = false;
      break;
    } catch (const std::exception& e) {
      slot.failed = true;
      slot.error = e.what();
    }
  }
  if (wantStore && !slot.failed) {
    StoreRecords records;
    storeSave(*capture, records);
    NB_EXPECTS(records.size() == storeRecords);
    opt.store->appendCell(std::move(records));
  }
  if (opt.journal != nullptr) {
    campaign::CellRecord rec;
    rec.machine = slot.machine;
    rec.cell = slot.cell;
    rec.attempts = static_cast<std::uint32_t>(slot.attempts);
    rec.failed = slot.failed;
    rec.error = slot.error;
    if (!slot.failed) {
      campaign::PayloadWriter w;
      save(w);
      rec.payload = w.bytes();
    }
    opt.journal->append(std::move(rec));
  }
}

/// Save/load lambda builders for the common one-Summary cell payloads.
inline auto saveSummary(const Summary& s) {
  return [&s](campaign::PayloadWriter& w) { campaign::putSummary(w, s); };
}
inline auto loadSummary(Summary& s) {
  return [&s](campaign::PayloadReader& r) { s = campaign::readSummary(r); };
}
inline auto saveOptSummary(const std::optional<Summary>& s) {
  return [&s](campaign::PayloadWriter& w) { campaign::putSummary(w, *s); };
}
inline auto loadOptSummary(std::optional<Summary>& s) {
  return [&s](campaign::PayloadReader& r) { s = campaign::readSummary(r); };
}

/// Builds one store record from a measured cell. The store encoder
/// enforces samples.size() == summary.count — every channel records
/// exactly one value per binary run, so a full capture always matches.
inline stats::SampleRecord sampleRecord(const CellIncident& slot,
                                        std::string quantity, std::string unit,
                                        stats::Better better,
                                        const Summary& summary,
                                        std::vector<double> samples) {
  stats::SampleRecord rec;
  rec.machine = slot.machine;
  rec.cell = slot.cell;
  rec.quantity = std::move(quantity);
  rec.unit = std::move(unit);
  rec.better = better;
  rec.summary = summary;
  rec.samples = std::move(samples);
  return rec;
}

/// Keeps only the interesting incident slots (retried or failed cells),
/// in task order, appending them to `out` when requested.
inline void collectIncidents(std::vector<CellIncident> slots,
                             std::vector<CellIncident>* out) {
  if (out == nullptr) {
    return;
  }
  for (CellIncident& slot : slots) {
    if (slot.attempts > 1 || slot.failed) {
      out->push_back(std::move(slot));
    }
  }
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

/// Post-fan-out cancellation check shared by the compute functions: all
/// in-flight cells have finished and journalled by the time the fan-out
/// returns, so this is the safe point to abandon the partial table.
inline void throwIfCancelled(const TableOptions& opt) {
  if (opt.cancel != nullptr) {
    opt.cancel->throwIfRequested();
  }
}

/// The machines a table run measures: registry pointers verbatim without
/// a fault plan (identity preserved for golden tests and Table 7), or
/// per-machine perturbed copies under one.
class MeasuredMachines {
 public:
  MeasuredMachines(const std::vector<const machines::Machine*>& ms,
                   const faults::FaultPlan* plan) {
    if (plan == nullptr) {
      return;
    }
    faulted_.reserve(ms.size());
    for (const machines::Machine* m : ms) {
      faulted_.push_back(plan->applyToMachine(*m));
    }
  }

  [[nodiscard]] const machines::Machine& at(
      const std::vector<const machines::Machine*>& ms, std::size_t i) const {
    return faulted_.empty() ? *ms[i] : faulted_[i];
  }

 private:
  std::vector<machines::Machine> faulted_;
};

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
