#include "memsim/host_memory_model.hpp"

#include <gtest/gtest.h>

#include "machines/registry.hpp"
#include "ompenv/placement.hpp"

namespace nodebench::memsim {
namespace {

using machines::byName;
using ompenv::OmpConfig;
using ompenv::Places;
using ompenv::ProcBind;

ompenv::ThreadPlacement placed(const machines::Machine& m, int threads,
                               ProcBind bind = ProcBind::Spread,
                               Places places = Places::Cores) {
  return ompenv::place(m.topology, OmpConfig{threads, bind, places});
}

const ByteCount big = ByteCount::gib(4);  // far outside any LLC

TEST(HostMemoryModel, SingleBoundThreadMatchesCalibration) {
  const auto& m = byName("Eagle");
  HostMemoryModel model(m);
  const auto p = placed(m, 1, ProcBind::True, Places::NotSet);
  EXPECT_NEAR(model.achievableBandwidth(p, big).inGBps(), 13.45, 1e-9);
}

TEST(HostMemoryModel, FullBoundTeamMatchesCalibration) {
  const auto& m = byName("Eagle");
  HostMemoryModel model(m);
  const auto p = placed(m, m.coreCount());
  // 1e-6 tolerance: the 4 GiB working set sits deep past the LLC knee but
  // the smooth boost still contributes a ~1e-8 residual.
  EXPECT_NEAR(model.achievableBandwidth(p, big).inGBps(), 208.24, 1e-6);
}

TEST(HostMemoryModel, BandwidthScalesWithCoresUntilSaturation) {
  const auto& m = byName("Manzano");
  HostMemoryModel model(m);
  double prev = 0.0;
  for (int threads : {1, 2, 4, 8, 16, 32, 48}) {
    const double bw =
        model.achievableBandwidth(placed(m, threads), big).inGBps();
    EXPECT_GE(bw, prev - 1e-9) << threads << " threads";
    prev = bw;
  }
  // Core-limited region is linear: 2 threads = 2x one thread.
  const double one = model.achievableBandwidth(placed(m, 1), big).inGBps();
  const double two = model.achievableBandwidth(placed(m, 2), big).inGBps();
  EXPECT_NEAR(two, 2.0 * one, 1e-9);
}

TEST(HostMemoryModel, UnboundTeamIsSlower) {
  const auto& m = byName("Sawtooth");
  HostMemoryModel model(m);
  const auto bound = placed(m, m.coreCount(), ProcBind::True, Places::NotSet);
  const auto unbound =
      placed(m, m.coreCount(), ProcBind::NotSet, Places::NotSet);
  EXPECT_LT(model.achievableBandwidth(unbound, big).inGBps(),
            model.achievableBandwidth(bound, big).inGBps());
}

TEST(HostMemoryModel, UnboundSingleThreadPenaltyIsSmaller) {
  const auto& m = byName("Sawtooth");
  HostMemoryModel model(m);
  const double bound1 =
      model
          .achievableBandwidth(placed(m, 1, ProcBind::True, Places::NotSet),
                               big)
          .inGBps();
  const double unbound1 =
      model
          .achievableBandwidth(placed(m, 1, ProcBind::NotSet, Places::NotSet),
                               big)
          .inGBps();
  const double ratio1 = unbound1 / bound1;
  EXPECT_LT(ratio1, 1.0);
  EXPECT_GT(ratio1, m.hostMemory.unboundFactor);  // milder than team penalty
}

TEST(HostMemoryModel, SmtOccupancyAppliesFactor) {
  const auto& m = byName("Manzano");  // smtFactor = 0.97
  HostMemoryModel model(m);
  const auto coresOnly =
      placed(m, m.coreCount(), ProcBind::True, Places::NotSet);
  const auto allThreads =
      placed(m, m.hardwareThreadCount(), ProcBind::Close, Places::Threads);
  const double a = model.achievableBandwidth(coresOnly, big).inGBps();
  const double b = model.achievableBandwidth(allThreads, big).inGBps();
  EXPECT_NEAR(b, a * 0.97, 1e-9);
}

TEST(HostMemoryModel, CacheResidentWorkingSetIsFaster) {
  const auto& m = byName("Eagle");
  HostMemoryModel model(m);
  const auto p = placed(m, 1, ProcBind::True, Places::NotSet);
  const double dram =
      model.achievableBandwidth(p, ByteCount::gib(4)).inGBps();
  const double cached =
      model.achievableBandwidth(p, ByteCount::mib(4)).inGBps();
  EXPECT_GT(cached, 1.5 * dram);
}

TEST(HostMemoryModel, TransferTimeIsTrafficOverBandwidth) {
  const auto& m = byName("Eagle");
  HostMemoryModel model(m);
  const auto p = placed(m, 1, ProcBind::True, Places::NotSet);
  const ByteCount traffic = ByteCount::gb(27);
  const Duration t = model.transferTime(traffic, big, p);
  EXPECT_NEAR(t.s(), 27.0 / 13.45, 1e-9);
  EXPECT_THROW((void)model.transferTime(ByteCount{0}, big, p),
               PreconditionError);
}

TEST(HostMemoryModel, EmptyPlacementRejected) {
  const auto& m = byName("Eagle");
  HostMemoryModel model(m);
  ompenv::ThreadPlacement empty;
  EXPECT_THROW((void)model.achievableBandwidth(empty, big),
               PreconditionError);
}

}  // namespace
}  // namespace nodebench::memsim
