/// \file cpu_knl.cpp
/// \brief Self-hosted Intel Xeon Phi (Knights Landing) systems of Table 2:
/// Trinity (LANL, KNL 7250) and Theta (ANL, KNL 7230).
///
/// Calibration sources (Table 4):
///   system   single        all            peak      on-socket   on-node
///   Trinity  12.36+-0.16   347.28+-5.76   >450 [34] 0.67+-0.01  0.99+-0.01
///   Theta    18.76+-0.58   119.72+-0.54   >450 [34] 5.95+-0.01  6.25+-0.05
///
/// Both KNLs run in "quad cache" mode: MCDRAM as a memory-side cache whose
/// management overhead we model as a 1.15x slowdown factor. Flat mode
/// would remove it;
/// `KnlFlatModeTest.DroppingTheCacheFactorStaysBelowMcdramPeak` pins what
/// that leaves.
/// Theta's anomalously low all-thread bandwidth — which the paper itself
/// calls "suspiciously low" and cannot fully explain — is calibrated
/// as-measured rather than explained away.
///
/// MPI model inversion: the paper measures "on-socket" between cores 0 and
/// 1 (which share a mesh tile: distance 0) and "on-node" between cores 0
/// and N-1 (the far corner of the mesh). One-way latency =
/// softwareOverhead + meshBase + meshPerHop * tileDistance, so:
///   Trinity: tile distance 9  => perHop = (0.99-0.67)/9  = 35.6 ns
///   Theta:   tile distance 10 => perHop = (6.25-5.95)/10 = 30.0 ns
/// Theta's ~6 us software overhead reflects its much older cray-mpich
/// stack; the paper reports the ALCF alternative benchmark still saw ~5 us.

#include "machines/builders.hpp"

#include "machines/cache_hierarchy.hpp"
#include "machines/calibration.hpp"
#include "machines/node_shapes.hpp"

namespace nodebench::machines {

using namespace nodebench::literals;

Machine makeTrinity() {
  Machine m;
  m.info = SystemInfo{"Trinity", 29, "LANL", "Intel Xeon Phi 7250", ""};
  m.env = SoftwareEnv{"intel/2022.0.2", "", "cray-mpich/7.7.20"};
  // 68 cores = 34 tiles; a 5-column mesh puts the last tile at Manhattan
  // distance 9 from tile 0.
  m.topology = knlNode(m.info.cpuModel, /*cores=*/68, /*meshCols=*/5);
  m.seed = 0x7e100001u;
  applyHostMemoryCalibration(
      m, HostMemoryTargets{12.36, 347.28, 450.0, "> 450 [34]",
                           /*cacheModeOverhead=*/1.15,
                           /*cvSingle=*/0.013, /*cvAll=*/0.017});
  m.hostMemory.smtFactor = 1.0;  // KNL tolerates 4-way SMT without loss
  m.cacheHierarchy = knlCacheHierarchy(/*cores=*/68, /*clockGHz=*/1.4);
  m.hostMpi.softwareOverhead = 0.62_us;
  m.hostMpi.meshBase = 0.05_us;
  m.hostMpi.meshPerHop = Duration::nanoseconds(320.0 / 9.0);
  m.hostMpi.cv = 0.013;
  // 68c x 1.4 GHz x 32 DP flops/cycle (dual AVX-512 VPUs).
  m.hostPeakFp64Gflops = 3046.0;
  return m;
}

Machine makeTheta() {
  Machine m;
  m.info = SystemInfo{"Theta", 94, "ANL", "Intel Xeon Phi 7230", ""};
  m.env = SoftwareEnv{"intel/19.1.0.166", "", "cray-mpich/7.7.14"};
  // 64 cores = 32 tiles; a 4-column mesh puts the last tile at Manhattan
  // distance 10 from tile 0.
  m.topology = knlNode(m.info.cpuModel, /*cores=*/64, /*meshCols=*/4);
  m.seed = 0x7e700001u;
  applyHostMemoryCalibration(
      m, HostMemoryTargets{18.76, 119.72, 450.0, "> 450 [34]",
                           /*cacheModeOverhead=*/1.15,
                           /*cvSingle=*/0.031, /*cvAll=*/0.0045});
  m.hostMemory.smtFactor = 1.0;
  m.cacheHierarchy = knlCacheHierarchy(/*cores=*/64, /*clockGHz=*/1.3);
  m.hostMpi.softwareOverhead = 5.90_us;
  m.hostMpi.meshBase = 0.05_us;
  m.hostMpi.meshPerHop = Duration::nanoseconds(30.0);
  m.hostMpi.cv = 0.005;
  // 64c x 1.3 GHz x 32 DP flops/cycle.
  m.hostPeakFp64Gflops = 2662.0;
  return m;
}

}  // namespace nodebench::machines
