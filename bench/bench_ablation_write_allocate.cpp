/// \file bench_ablation_write_allocate.cpp
/// \brief Ablation: how much does BabelStream 4.0's byte-accounting
/// convention (no write-allocate traffic in the numerator, paper §3.1)
/// depress the reported CPU bandwidth per op?
///
/// We run each op twice on every CPU system: with the machine's real
/// write-allocate stores and with hypothetical non-temporal stores. The
/// per-op ratio is the analytic counted/actual fraction (2/3 for
/// copy/mul, 3/4 for add/triad, 1 for dot), which is exactly why "best
/// over all ops" selects Dot in Table 4.

#include <cstdio>

#include "babelstream/driver.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "bench_common.hpp"
#include "machines/registry.hpp"

int main(int argc, char** argv) {
  using namespace nodebench;
  const auto opt = benchtool::optionsFromArgs(argc, argv);

  for (const machines::Machine* base : machines::cpuMachines()) {
    machines::Machine nonTemporal = *base;  // what-if: streaming stores
    nonTemporal.hostMemory.nonTemporalStores = true;

    const ompenv::OmpConfig team{base->coreCount(), ompenv::ProcBind::Spread,
                                 ompenv::Places::Cores};
    babelstream::SimOmpBackend wa(*base, team);
    babelstream::SimOmpBackend nt(nonTemporal, team);
    babelstream::DriverConfig cfg;
    cfg.binaryRuns = opt.binaryRuns;
    cfg.arrayBytes = opt.cpuArrayBytes;
    const auto withWa = babelstream::run(wa, cfg);
    const auto withNt = babelstream::run(nt, cfg);

    Table t({"Op", "write-allocate (GB/s)", "non-temporal (GB/s)",
             "ratio"});
    t.setTitle(base->info.name +
               ": reported bandwidth vs store write-allocate behaviour");
    for (std::size_t i = 0; i < withWa.ops.size(); ++i) {
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.3f",
                    withWa.ops[i].bandwidthGBps.mean /
                        withNt.ops[i].bandwidthGBps.mean);
      t.addRow({std::string(babelstream::streamOpName(withWa.ops[i].op)),
                withWa.ops[i].bandwidthGBps.toString(),
                withNt.ops[i].bandwidthGBps.toString(), ratio});
    }
    std::fputs(t.renderAscii().c_str(), stdout);
    std::printf("\n");
  }
  std::printf(
      "Expected ratios: Copy/Mul 2/3, Add/Triad 3/4, Dot 1 — Dot's "
      "immunity is why it wins Table 4's best-over-ops rule.\n");
  return 0;
}
