#pragma once
/// \file placement.hpp
/// \brief Maps an OpenMP environment configuration onto a concrete thread
/// placement over a node topology.
///
/// The placement is what the host memory model consumes: which cores (and
/// how many SMT slots per core) are occupied, how many sockets and NUMA
/// domains participate, and whether the threads are pinned. Binding
/// effects — the whole point of the paper's Table 1 sweep — then fall out
/// of the memory model's per-NUMA saturation and unbound-migration terms.

#include <vector>

#include "ompenv/omp_config.hpp"
#include "topo/topology.hpp"

namespace nodebench::ompenv {

/// One OpenMP thread's home.
struct ThreadSlot {
  topo::CoreId core;
  int smtSlot = 0;  ///< 0 = first hardware thread of the core.
};

/// Resolved placement of an OpenMP team, with its shape: how many cores,
/// NUMA domains and sockets the team occupies on the topology it was made
/// on. A traced STREAM run evaluates the memory model, which reads the
/// shape, once per binary run, so `place()` counts it once while it
/// assigns the threads. `place()` is the only way to build a non-empty
/// placement, so the counts always describe `threads()`.
class ThreadPlacement {
 public:
  [[nodiscard]] const std::vector<ThreadSlot>& threads() const {
    return threads_;
  }

  /// Pinned (OMP_PROC_BIND set and not "false").
  [[nodiscard]] bool bound() const { return bound_; }

  [[nodiscard]] int threadCount() const {
    return static_cast<int>(threads_.size());
  }

  /// Number of distinct cores occupied.
  [[nodiscard]] int coresUsed() const { return coresUsed_; }

  /// Number of distinct NUMA domains occupied.
  [[nodiscard]] int numaDomainsUsed() const { return numaDomainsUsed_; }

  /// Number of distinct sockets occupied.
  [[nodiscard]] int socketsUsed() const { return socketsUsed_; }

  /// Max threads stacked on any single core (SMT pressure).
  [[nodiscard]] int maxSmtOccupancy() const { return maxSmtOccupancy_; }

 private:
  friend ThreadPlacement place(const topo::NodeTopology& topo,
                               const OmpConfig& cfg);

  std::vector<ThreadSlot> threads_;
  bool bound_ = false;
  int coresUsed_ = 0;
  int numaDomainsUsed_ = 0;
  int socketsUsed_ = 0;
  int maxSmtOccupancy_ = 0;
};

/// Computes the placement of `cfg` on `topo`.
///
/// Policies:
///  - close (or bind=true with default places): fill cores in id order,
///    one thread per core first, wrapping into SMT slots when the team is
///    larger than the core count;
///  - spread: stride threads round-robin across sockets, then across cores
///    within each socket;
///  - unbound (OMP_PROC_BIND unset/false): the OS spreads threads over
///    cores in id order but the placement is flagged `bound=false`, which
///    the memory model penalizes (migration, imperfect NUMA locality).
///
/// Thread count defaults to the total hardware-thread count when
/// `cfg.numThreads` is unset; it is clamped to the hardware-thread count
/// (oversubscription is outside this model's scope).
[[nodiscard]] ThreadPlacement place(const topo::NodeTopology& topo,
                                    const OmpConfig& cfg);

}  // namespace nodebench::ompenv
