#pragma once
/// \file host_memory_model.hpp
/// \brief Analytic model of a node's host memory system under an OpenMP
/// thread placement.
///
/// The model composes four effects, each traceable to a paper observation:
///  1. *Per-core limit*: one core sustains `perCoreBw`; small teams are
///     core-limited (Table 4 "Single").
///  2. *Saturation*: each NUMA domain saturates at `perNumaSaturation`;
///     full teams are saturation-limited (Table 4 "All").
///  3. *Binding*: unpinned teams lose a machine-specific factor to
///     migration and imperfect NUMA spread (why Table 1 sweeps
///     OMP_PROC_BIND / OMP_PLACES).
///  4. *MCDRAM cache mode*: KNL systems pay a cache-management factor
///     (the paper's explanation for Trinity's sub-peak "All" value).
///
/// Additionally a last-level-cache boost applies when the working set fits
/// in cache, giving the BabelStream size sweep its characteristic knee.
/// When the machine carries an explicit `CacheHierarchy`, the single knee
/// is refined into a full ladder: each inner level (L1/L2/... below the
/// legacy LLC size) contributes a telescoping bandwidth gain with a hard
/// cutoff at four times its effective capacity, so the working-set sweep
/// family shows one knee per level while every table-sized working set
/// resolves to bit-identical bandwidth with or without the hierarchy
/// (docs/MODELING.md, "Cache ladder"; the conformance suite is the proof).

#include "core/units.hpp"
#include "machines/machine.hpp"
#include "ompenv/placement.hpp"
#include "trace/trace.hpp"

namespace nodebench::memsim {

class HostMemoryModel {
 public:
  /// The machine must outlive the model. Captures the current trace
  /// buffer, so cache hit/miss classifications of a traced measurement
  /// land in the scope that constructed the model.
  explicit HostMemoryModel(const machines::Machine& machine)
      : machine_(&machine), traceSink_(trace::current()) {}

  /// Sustained bandwidth (actual-traffic basis) achievable by `placement`
  /// for a kernel whose resident working set is `workingSet` bytes. The
  /// placement must have been made on this machine's topology: the model
  /// reads the shape `ompenv::place` stored in it.
  [[nodiscard]] Bandwidth achievableBandwidth(
      const ompenv::ThreadPlacement& placement, ByteCount workingSet) const;

  /// Wall time for the placement to move `actualTraffic` bytes (reads +
  /// writes + write-allocate fills) with a `workingSet`-byte footprint.
  [[nodiscard]] Duration transferTime(ByteCount actualTraffic,
                                      ByteCount workingSet,
                                      const ompenv::ThreadPlacement&) const;

  [[nodiscard]] const machines::Machine& machine() const { return *machine_; }

 private:
  const machines::Machine* machine_;
  trace::TraceBuffer* traceSink_ = nullptr;  ///< Null = tracing disabled.
};

}  // namespace nodebench::memsim
