/// \file bench_ext_cpu_vendors.cpp
/// \brief Extension (paper future-work #3): "Comparing results between
/// Intel, AMD and Arm CPU systems would be of interest in the future."
/// Runs the Table 4 methodology on representative Arm (A64FX, Ampere
/// Altra) and AMD (EPYC Milan) nodes next to the paper's Intel systems.

#include <cstdio>

#include "babelstream/driver.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "bench_common.hpp"
#include "machines/extra_machines.hpp"
#include "machines/registry.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/balance.hpp"

namespace {

using namespace nodebench;

void addRow(Table& t, const machines::Machine& m,
            const report::TableOptions& opt) {
  const auto sweep = report::ompSweep(m, opt);
  osu::LatencyConfig lcfg;
  lcfg.binaryRuns = opt.binaryRuns;
  const auto [sa, sb] = osu::onSocketPair(m);
  const auto [na, nb] = osu::onNodePair(m);
  const auto onSocket =
      osu::LatencyBenchmark(m, sa, sb, mpisim::BufferSpace::Kind::Host)
          .measure(lcfg)
          .latencyUs;
  const auto onNode =
      osu::LatencyBenchmark(m, na, nb, mpisim::BufferSpace::Kind::Host)
          .measure(lcfg)
          .latencyUs;
  const double balance =
      m.hostPeakFp64Gflops /
      (m.hostMemory.perNumaSaturation.inGBps() * m.topology.numaCount() /
       m.hostMemory.cacheModeOverhead);
  t.addRow({m.info.name, m.info.cpuModel, sweep.bestSingle.toString(),
            sweep.bestAll.toString(), onSocket.toString(),
            onNode.toString(), formatFixed(balance, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = benchtool::optionsFromArgs(argc, argv);

  Table t({"System", "CPU", "Single (GB/s)", "All (GB/s)",
           "On-Socket (us)", "On-Node (us)", "Balance (f/B)"});
  t.setTitle(
      "Table 4 methodology across CPU vendors (Intel = paper systems; "
      "AMD/Arm = representative reference nodes)");
  t.setAlign(1, Align::Left);

  for (const char* name : {"Sawtooth", "Eagle", "Trinity"}) {
    addRow(t, machines::byName(name), opt);
  }
  t.addSeparator();
  for (const machines::Machine& m : machines::extraMachines()) {
    addRow(t, m, opt);
  }
  std::fputs(t.renderAscii().c_str(), stdout);
  std::printf(
      "\nThe comparison the paper wished for: the HBM2-fed A64FX more "
      "than triples any Xeon's sustained bandwidth (830 vs ~240 GB/s) at "
      "similar peak FLOPS — a very different balance point — while the "
      "Milan and Altra nodes land near the Xeons on bandwidth but differ "
      "in NUMA structure and software-stack latency. Reference rows are "
      "representative models from public literature, not paper data.\n");
  return 0;
}
