#include "machines/cache_hierarchy.hpp"

#include <cmath>

namespace nodebench::machines {

namespace {

/// Cycle count at a nominal clock, expressed as a latency.
Duration cycles(double n, double clockGHz) {
  return Duration::nanoseconds(n / clockGHz);
}

/// Fractional-MiB capacities (35.75 MiB L3, ...) expressed in whole KiB.
ByteCount mibFrac(double mib) {
  return ByteCount::kib(static_cast<std::uint64_t>(std::llround(mib * 1024.0)));
}

CacheLevel level(std::string name, ByteCount capacity, Duration latency,
                 double perCoreGBps, int sharedByCores,
                 ByteCount lineSize = ByteCount::bytes(64)) {
  CacheLevel l;
  l.name = std::move(name);
  l.capacity = capacity;
  l.lineSize = lineSize;
  l.loadToUseLatency = latency;
  l.perCoreBandwidth = Bandwidth::gbps(perCoreGBps);
  l.sharedByCores = sharedByCores;
  return l;
}

}  // namespace

CacheHierarchy skylakeServerCacheHierarchy(int coresPerSocket,
                                           double l3MibPerSocket,
                                           double clockGHz) {
  CacheHierarchy h;
  // 4-cycle L1d, ~14-cycle L2, ~50-70-cycle non-inclusive L3 (mesh
  // average); per-core sustained read bandwidths from published
  // Skylake-SP/Cascade Lake single-core ladder measurements.
  h.levels.push_back(level("L1d", ByteCount::kib(32), cycles(4.0, clockGHz),
                           /*perCoreGBps=*/200.0, /*sharedByCores=*/1));
  h.levels.push_back(level("L2", ByteCount::mib(1), cycles(14.0, clockGHz),
                           /*perCoreGBps=*/90.0, /*sharedByCores=*/1));
  h.levels.push_back(level("L3", mibFrac(l3MibPerSocket),
                           cycles(60.0, clockGHz),
                           /*perCoreGBps=*/32.0, coresPerSocket));
  h.memoryLatency = Duration::nanoseconds(85.0);
  h.coreClockGHz = clockGHz;
  return h;
}

CacheHierarchy knlCacheHierarchy(int cores, double clockGHz) {
  CacheHierarchy h;
  // KNL's small OoO core: 4-cycle L1d, ~17-cycle tile L2. MCDRAM in
  // quad-cache mode is a direct-mapped memory-side cache: ~170 ns
  // load-to-use, and a full miss pays the tag check before DDR4, which
  // is why memoryLatency exceeds flat-mode DDR (~140 ns) numbers.
  h.levels.push_back(level("L1d", ByteCount::kib(32), cycles(4.0, clockGHz),
                           /*perCoreGBps=*/110.0, /*sharedByCores=*/1));
  h.levels.push_back(level("L2", ByteCount::mib(1), cycles(17.0, clockGHz),
                           /*perCoreGBps=*/55.0, /*sharedByCores=*/2));
  h.levels.push_back(level("MCDRAM", ByteCount::gib(16),
                           Duration::nanoseconds(170.0),
                           /*perCoreGBps=*/14.0, cores));
  h.memoryLatency = Duration::nanoseconds(230.0);
  h.coreClockGHz = clockGHz;
  return h;
}

CacheHierarchy power9CacheHierarchy(int coresPerSocket, double clockGHz) {
  CacheHierarchy h;
  // SMT4 core pairs share an L2 slice; the 10 MiB-per-pair eDRAM L3 is
  // NUCA but chip-visible, so it is modeled as one shared pool.
  const double l3Mib = 10.0 * coresPerSocket / 2.0;
  h.levels.push_back(level("L1d", ByteCount::kib(32), cycles(4.0, clockGHz),
                           /*perCoreGBps=*/150.0, /*sharedByCores=*/1));
  h.levels.push_back(level("L2", ByteCount::kib(512), cycles(12.0, clockGHz),
                           /*perCoreGBps=*/75.0, /*sharedByCores=*/2,
                           ByteCount::bytes(128)));
  h.levels.push_back(level("L3", mibFrac(l3Mib), cycles(55.0, clockGHz),
                           /*perCoreGBps=*/35.0, coresPerSocket,
                           ByteCount::bytes(128)));
  h.memoryLatency = Duration::nanoseconds(130.0);
  h.coreClockGHz = clockGHz;
  return h;
}

CacheHierarchy epycCacheHierarchy(int coresPerCcx, double l3MibPerCcx,
                                  double clockGHz) {
  CacheHierarchy h;
  // Zen 2/3: 32 KiB L1d, 512 KiB private L2, victim L3 per core complex.
  h.levels.push_back(level("L1d", ByteCount::kib(32), cycles(4.0, clockGHz),
                           /*perCoreGBps=*/180.0, /*sharedByCores=*/1));
  h.levels.push_back(level("L2", ByteCount::kib(512), cycles(12.0, clockGHz),
                           /*perCoreGBps=*/85.0, /*sharedByCores=*/1));
  h.levels.push_back(level("L3", mibFrac(l3MibPerCcx),
                           cycles(46.0, clockGHz),
                           /*perCoreGBps=*/38.0, coresPerCcx));
  h.memoryLatency = Duration::nanoseconds(100.0);
  h.coreClockGHz = clockGHz;
  return h;
}

}  // namespace nodebench::machines
