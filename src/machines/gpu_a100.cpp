/// \file gpu_a100.cpp
/// \brief AMD EPYC + NVIDIA A100 systems of Table 3: Perlmutter (NERSC,
/// rank 8, EPYC 7763) and Polaris (ANL, rank 19, EPYC 7532). Figure 3
/// node shape: four A100s connected all-to-all by NVLink3 (every pair is
/// link class A).
///
/// Calibration sources:
///  Table 5 (device BabelStream GB/s; MPI us):
///   system      device bw        H2H          D2D A
///   Perlmutter  1363.74+-0.23    0.46+-0.06   13.50+-0.13
///   Polaris     1362.75+-0.17    0.21+-0.00   10.42+-0.03
///  Table 6 (Comm|Scope; us / GB/s):
///   system      launch  wait  h2d lat  h2d bw  d2d A
///   Perlmutter  1.77    0.98  4.24     24.74   14.74+-0.41
///   Polaris     1.83    1.32  5.33     23.71   32.84+-0.30
///
/// The paper highlights the 14.74 vs 32.84 us Comm|Scope D2D difference
/// between these two otherwise identical GPU configurations and
/// attributes it to system software (CUDA driver version). In our model
/// that is precisely a difference in the solved d2dDmaSetup parameter —
/// ~12.7 us on Perlmutter vs ~30.2 us on Polaris — with identical
/// topological routes. The test
/// `D2dMechanismTest.ClassALatencyIsCallDmaRouteAndSync` checks that
/// decomposition on every GPU machine.
///
/// Perlmutter note carried from the paper: only the majority 40 GB-HBM
/// A100 nodes are modelled.

#include "machines/builders.hpp"

#include "machines/cache_hierarchy.hpp"
#include "machines/calibration.hpp"
#include "machines/node_shapes.hpp"

namespace nodebench::machines {

using namespace nodebench::literals;

Machine makePerlmutter() {
  Machine m;
  m.topology = a100Node("AMD EPYC 7763", /*coresPerSocket=*/64);
  m.info = SystemInfo{"Perlmutter", 8, "NERSC", "AMD EPYC 7763",
                      "NVIDIA A100"};
  m.env = SoftwareEnv{"gcc/11.2.0", "cuda/11.7", "cray-mpich/8.1.25"};
  m.seed = 0x9e2a0001u;
  m.device.emplace();
  m.device->peakFp64Gflops = 9700.0;  // A100 FP64 (non-tensor)
  // EPYC 7763: 64c x 2.45 GHz x 16 DP flops/cycle.
  m.hostPeakFp64Gflops = 2509.0;
  applyHostMemoryCalibration(
      m, HostMemoryTargets{14.0, 165.0, 204.8, "204.8 (repr.)", 1.0});
  // EPYC 7763 (Milan/Zen 3): 32 MiB L3 per 8-core CCX.
  m.cacheHierarchy = epycCacheHierarchy(8, 32.0, 2.45);
  // Host MPI: 0.46 us on-socket => 0.38 + 0.08.
  m.hostMpi.softwareOverhead = 0.38_us;
  m.hostMpi.sameNumaHop = 0.08_us;
  m.hostMpi.crossNumaHop = 0.12_us;
  m.hostMpi.crossSocketHop = 0.20_us;  // single-socket node; unused
  m.hostMpi.cv = 0.13;
  applyCommScopeCalibration(
      m, CommScopeTargets{1.77, 0.98, 4.24, 24.74,
                          {14.74, std::nullopt, std::nullopt, std::nullopt},
                          /*cvLaunch=*/0.0056, /*cvWait=*/0.004,
                          /*cvXferLat=*/0.0024, /*cvXferBw=*/0.0002,
                          /*cvD2D=*/0.0278});
  applyDeviceStreamCalibration(m, 1363.74, 1555.2, "1555.2 [3]",
                               /*cvBw=*/0.00017);
  applyDeviceMpiCalibration(m, /*classATargetUs=*/13.50, /*cv=*/0.0096);
  return m;
}

Machine makePolaris() {
  Machine m;
  m.topology = a100Node("AMD EPYC 7532", /*coresPerSocket=*/32);
  m.info = SystemInfo{"Polaris", 19, "ANL", "AMD EPYC 7532", "NVIDIA A100"};
  m.env = SoftwareEnv{"nvhpc/21.9", "cuda/11.4", "cray-mpich/8.1.16"};
  m.seed = 0x90a10001u;
  m.device.emplace();
  m.device->peakFp64Gflops = 9700.0;
  // EPYC 7532: 32c x 2.4 GHz x 16 DP flops/cycle.
  m.hostPeakFp64Gflops = 1229.0;
  applyHostMemoryCalibration(
      m, HostMemoryTargets{14.0, 150.0, 204.8, "204.8 (repr.)", 1.0});
  // EPYC 7532 (Rome/Zen 2): 16 MiB L3 per 4-core CCX.
  m.cacheHierarchy = epycCacheHierarchy(4, 16.0, 2.4);
  // Host MPI: 0.21 us on-socket => 0.16 + 0.05.
  m.hostMpi.softwareOverhead = 0.16_us;
  m.hostMpi.sameNumaHop = 0.05_us;
  m.hostMpi.crossNumaHop = 0.10_us;
  m.hostMpi.crossSocketHop = 0.20_us;
  m.hostMpi.cv = 0.005;
  applyCommScopeCalibration(
      m, CommScopeTargets{1.83, 1.32, 5.33, 23.71,
                          {32.84, std::nullopt, std::nullopt, std::nullopt},
                          /*cvLaunch=*/0.0022, /*cvWait=*/0.0076,
                          /*cvXferLat=*/0.0038, /*cvXferBw=*/0.0002,
                          /*cvD2D=*/0.0091});
  applyDeviceStreamCalibration(m, 1362.75, 1555.2, "1555.2 [3]",
                               /*cvBw=*/0.00012);
  applyDeviceMpiCalibration(m, /*classATargetUs=*/10.42, /*cv=*/0.0029);
  return m;
}

}  // namespace nodebench::machines
