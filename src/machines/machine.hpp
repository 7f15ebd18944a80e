#pragma once
/// \file machine.hpp
/// \brief Descriptor of one simulated system: identity (Tables 2/3),
/// software environment (Tables 8/9), node topology (Figures 1-3) and the
/// calibrated performance parameters the benchmark models consume.
///
/// Calibration philosophy (see DESIGN.md §1): every number stored here is a
/// *primitive* quantity — a link latency, a per-core bandwidth, a software
/// overhead — not a table cell. Table cells emerge from running the
/// benchmark code paths over these primitives. The primitives themselves
/// were derived by inverting the benchmark models against the paper's
/// reported means; the derivations are documented at each machine's
/// constructor.

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "topo/topology.hpp"

namespace nodebench::machines {

/// Identity of a system as listed in Tables 2 and 3.
struct SystemInfo {
  std::string name;
  int top500Rank = 0;
  std::string location;
  std::string cpuModel;
  std::string acceleratorModel;  ///< Empty for non-accelerator systems.

  [[nodiscard]] bool accelerated() const { return !acceleratorModel.empty(); }
};

/// Software environment as listed in Tables 8 and 9.
struct SoftwareEnv {
  std::string compiler;
  std::string deviceLibrary;  ///< Empty for non-accelerator systems.
  std::string mpi;
};

/// Host memory-system parameters (BabelStream OpenMP model).
struct HostMemoryParams {
  /// Sustainable DRAM bandwidth of one pinned core (after any cache-mode
  /// overhead is *removed*; the model re-applies it).
  Bandwidth perCoreBw;
  /// Saturated bandwidth of one NUMA domain with enough pinned threads.
  Bandwidth perNumaSaturation;
  /// Theoretical peak of the whole node (Table 4 "Peak" column).
  Bandwidth peak;
  /// Rendering of the peak for the table ("281.50", "> 450 [34]").
  std::string peakNote;
  /// Multiplicative slowdown of managing the MCDRAM cache in "quad cache"
  /// mode (1.0 on non-KNL machines).
  double cacheModeOverhead = 1.0;
  /// Throughput factor when more than one SMT thread per core is used.
  double smtFactor = 1.0;
  /// Throughput factor for unpinned teams (OS migration, imperfect NUMA
  /// spread); applies to multi-thread unbound rows of Table 1.
  double unboundFactor = 0.88;
  /// Same, for a single unpinned thread.
  double unboundSingleFactor = 0.96;
  /// Last-level cache per socket and the bandwidth boost factor applied
  /// when a kernel's working set fits in cache (drives the small-size end
  /// of the BabelStream size sweep; irrelevant at the >= 128 MB sizes used
  /// for Table 4).
  ByteCount llcPerSocket = ByteCount::mib(32);
  double cacheBandwidthBoost = 3.0;
  /// Measurement noise (sigma/mean) of single-thread / all-thread runs.
  double cvSingle = 0.01;
  double cvAll = 0.02;
};

/// One level of a machine's on-chip cache ladder, nearest-first. The
/// numbers are public-spec quantities, not calibrated fits: capacity and
/// line size from vendor datasheets, load-to-use latency and sustained
/// bandwidth from published microbenchmark studies of the same silicon
/// (see docs/MODELING.md, "Cache ladder").
struct CacheLevel {
  /// Display name: "L1d", "L2", "L3", "MCDRAM", ...
  std::string name;
  /// Capacity of ONE instance of this level (one core's L1, one socket's
  /// shared L3). Effective capacity for a thread team is derived from
  /// `sharedByCores` and the cores actually used.
  ByteCount capacity;
  /// Cache-line (transfer) granularity of this level.
  ByteCount lineSize = ByteCount::bytes(64);
  /// Dependent-load (pointer-chase) load-to-use latency when the working
  /// set is resident in this level.
  Duration loadToUseLatency;
  /// Sustained streaming bandwidth of one core reading from this level.
  Bandwidth perCoreBandwidth;
  /// How many physical cores share one instance (1 = private, cores per
  /// socket for a socket-wide LLC, whole node for MCDRAM-as-cache).
  int sharedByCores = 1;
};

/// Explicit cache hierarchy of the host CPU complex. Drives the memlab
/// benchmark families (working-set bandwidth sweeps, pointer-chase
/// latency) and the cache-ladder refinement inside
/// memsim::HostMemoryModel. An empty hierarchy is valid: the memory
/// model then falls back to the legacy single-LLC knee, and the memlab
/// families refuse the machine with a diagnostic.
struct CacheHierarchy {
  /// Ordered nearest-first: capacities strictly increase, latencies
  /// strictly increase, per-core bandwidths weakly decrease.
  std::vector<CacheLevel> levels;
  /// Dependent-load latency of a DRAM access that misses every level
  /// (local NUMA domain, open-page mix).
  Duration memoryLatency;
  /// Nominal core clock in GHz, used to convert ns-per-access into
  /// clk-per-op in the pointer-chase family.
  double coreClockGHz = 0.0;

  [[nodiscard]] bool empty() const { return levels.empty(); }
};

/// Host MPI point-to-point parameters (OSU latency model).
struct HostMpiParams {
  /// Per-message software overhead (send-side plus receive-side total).
  Duration softwareOverhead;
  /// Extra one-way wire time for two cores of the same NUMA domain.
  Duration sameNumaHop;
  /// Extra one-way wire time crossing NUMA domains within one socket.
  Duration crossNumaHop;
  /// Extra one-way wire time crossing the socket interconnect.
  Duration crossSocketHop;
  /// KNL mesh: base plus per-tile-hop time (used when cores carry mesh
  /// coordinates).
  Duration meshBase;
  Duration meshPerHop;
  /// Copy bandwidth of the eager (double-copy through shared memory) path.
  Bandwidth eagerBandwidth = Bandwidth::gbps(8.0);
  /// Copy bandwidth of the rendezvous (single-copy) path.
  Bandwidth rendezvousBandwidth = Bandwidth::gbps(14.0);
  /// Eager/rendezvous switchover message size (MPICH-style default).
  ByteCount eagerThreshold = ByteCount::kib(8);
  /// Measurement noise of latency runs.
  double cv = 0.015;
};

/// Parameters of the device-buffer MPI path (Table 5 columns A-D).
struct DeviceMpiParams {
  /// One-way software cost of the device-buffer path, *excluding* the
  /// physical link traversal (which comes from the topology route). Large
  /// on the V100/A100 systems, whose MPI stacks stage device data through
  /// host bounce buffers; sub-microsecond for cray-mpich's GPU-RMA path
  /// on the MI250X systems — exactly the paper's explanation of Table 5.
  Duration baseOneWay;
  /// Measurement noise.
  double cv = 0.01;
};

/// GPU runtime parameters (BabelStream device model + Comm|Scope).
struct DeviceParams {
  /// Achievable HBM bandwidth of one visible device (one GCD on MI250X).
  Bandwidth hbmBw;
  /// Theoretical HBM peak for the table ("900", "1555.2", "1600").
  Bandwidth hbmPeak;
  std::string hbmPeakNote;
  /// Host wall time to *launch* an empty kernel (Comm|Scope "Launch").
  Duration kernelLaunch;
  /// Host wall time of a device synchronize with an empty queue ("Wait").
  Duration syncWait;
  /// Host-side driver cost of invoking an async memcpy.
  Duration memcpyCallOverhead;
  /// DMA-engine setup cost per pinned-host <-> device transfer.
  Duration h2dDmaSetup;
  /// DMA-engine setup cost per device <-> device transfer.
  Duration d2dDmaSetup;
  /// Per-link-class residual of D2D memcpy latency relative to the
  /// topological route (captures empirical quirks such as Frontier's
  /// class D matching class A; see Table 6 discussion).
  std::array<Duration, 4> d2dClassResidual{};
  /// Peak double-precision rate of one visible device (GFLOP/s), for the
  /// machine-balance analysis (McCalpin's flops-vs-bandwidth motivation
  /// for STREAM, which the paper's related-work section recounts).
  double peakFp64Gflops = 0.0;
  /// Measurement noise per reported quantity.
  double cvBw = 0.001;
  double cvLaunch = 0.004;
  double cvWait = 0.004;
  double cvXferLat = 0.006;
  double cvXferBw = 0.0005;
  double cvD2D = 0.008;
};

/// A complete simulated system.
struct Machine {
  SystemInfo info;
  SoftwareEnv env;
  topo::NodeTopology topology;
  HostMemoryParams hostMemory;
  CacheHierarchy cacheHierarchy;  ///< Host cache ladder (may be empty).
  HostMpiParams hostMpi;
  std::optional<DeviceMpiParams> deviceMpi;  ///< Set iff accelerated.
  std::optional<DeviceParams> device;        ///< Set iff accelerated.
  /// Peak double-precision rate of the host CPUs (GFLOP/s, whole node).
  double hostPeakFp64Gflops = 0.0;

  /// Base RNG seed; every benchmark derives per-run streams from it.
  std::uint64_t seed = 0;

  [[nodiscard]] bool accelerated() const { return info.accelerated(); }

  /// Total physical cores / hardware threads of the node.
  [[nodiscard]] int coreCount() const { return topology.coreCount(); }
  [[nodiscard]] int hardwareThreadCount() const;
};

}  // namespace nodebench::machines
