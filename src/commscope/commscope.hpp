#pragma once
/// \file commscope.hpp
/// \brief Comm|Scope 0.12.0 re-implementation over the simulated GPU
/// runtime (the five test families the paper runs, §B.2):
///   Comm_cudart_kernel / Comm_hip_kernel        -> kernelLaunch
///   Comm_cudaDeviceSynchronize / hip...         -> syncWait
///   Comm_*MemcpyAsync_PinnedToGPU / GPUToPinned -> hostDevice{Latency,Bandwidth}
///   Comm_*MemcpyAsync_GPUToGPU                  -> d2d{Latency,Bandwidth}
///
/// Measurement definitions follow the paper exactly: launch latency is
/// the wall time to *launch* (not complete) an empty zero-argument
/// kernel; wait latency is a device synchronize with an empty queue;
/// copies are invoked and completed; H->D and D->H are averaged; latency
/// uses 128 B transfers, bandwidth 1 GiB transfers; 100 binary runs feed
/// the mean ± sigma.

#include <optional>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "gpusim/gpu_runtime.hpp"
#include "machines/machine.hpp"
#include "topo/types.hpp"

namespace nodebench::commscope {

/// Raw-sample channels (core/samples.hpp): one value per binary run,
/// named per quantity so a single capture around measureAll() can still
/// attribute samples to the individual Table 6 cells.
inline constexpr const char* kLaunchSampleChannel = "commscope.launch_us";
inline constexpr const char* kWaitSampleChannel = "commscope.wait_us";
inline constexpr const char* kHdLatencySampleChannel =
    "commscope.hd_latency_us";
inline constexpr const char* kHdBandwidthSampleChannel =
    "commscope.hd_bandwidth_gbps";
inline constexpr const char* kD2dLatencySampleChannel =
    "commscope.d2d_latency_us";
inline constexpr const char* kD2dBandwidthSampleChannel =
    "commscope.d2d_bandwidth_gbps";

struct Config {
  ByteCount latencyProbe = ByteCount::bytes(128);
  ByteCount bandwidthProbe = ByteCount::gib(1);
  int binaryRuns = 100;
  std::uint64_t seed = 0xc035c09e01u;
};

/// All Table 6 quantities for one machine.
struct MachineResults {
  Summary launchUs;
  Summary waitUs;
  Summary hostDeviceLatencyUs;
  Summary hostDeviceBandwidthGBps;
  /// Indexed by link class A..D; nullopt for absent classes.
  std::array<std::optional<Summary>, 4> d2dLatencyUs;
};

class CommScope {
 public:
  /// Precondition: accelerator machine. The machine must outlive this.
  explicit CommScope(const machines::Machine& machine);

  // -- noiseless single measurements (exposed for tests) ----------------
  [[nodiscard]] Duration truthKernelLaunch();
  [[nodiscard]] Duration truthSyncWait();
  /// (H->D + D->H)/2 completion time for `bytes`.
  [[nodiscard]] Duration truthHostDeviceTime(ByteCount bytes);
  /// D2D completion time between the class's representative pair.
  [[nodiscard]] Duration truthD2dTime(topo::LinkClass linkClass,
                                      ByteCount bytes);

  // -- aggregated benchmarks (100 binary runs, mean ± sigma) --------------
  [[nodiscard]] Summary kernelLaunchUs(const Config& config);
  [[nodiscard]] Summary syncWaitUs(const Config& config);
  [[nodiscard]] Summary hostDeviceLatencyUs(const Config& config);
  [[nodiscard]] Summary hostDeviceBandwidthGBps(const Config& config);
  [[nodiscard]] Summary d2dLatencyUs(topo::LinkClass linkClass,
                                     const Config& config);
  [[nodiscard]] Summary d2dBandwidthGBps(topo::LinkClass linkClass,
                                         const Config& config);

  /// Runs everything Table 6 needs for this machine.
  [[nodiscard]] MachineResults measureAll(const Config& config);

 private:
  /// Aggregates `truthUs * noise` over binary runs, recording each draw
  /// on the quantity's raw-sample channel.
  [[nodiscard]] Summary aggregate(double truthUs, double cv,
                                  const Config& config,
                                  std::uint64_t streamSalt,
                                  const char* channel) const;

  gpusim::GpuRuntime runtime_;
};

}  // namespace nodebench::commscope
