/// \file bench_ext_roofline.cpp
/// \brief Extension: roofline tables for the studied systems plus the
/// DGEMM proxy — where each machine turns compute-bound and what that
/// means for a dense kernel.

#include <cstdio>

#include "bench_common.hpp"
#include "machines/registry.hpp"
#include "report/roofline.hpp"
#include "workload/gemm.hpp"

int main() {
  using namespace nodebench;

  const std::vector<const machines::Machine*> gpus{
      &machines::byName("Summit"), &machines::byName("Perlmutter"),
      &machines::byName("Frontier")};
  const std::vector<double> intensities{0.125, 0.5, 2.0, 8.0, 32.0, 128.0};
  std::fputs(
      report::renderRooflines(gpus, /*deviceSide=*/true, intensities)
          .renderAscii()
          .c_str(),
      stdout);
  std::printf("\nRidge points (flops/byte): Summit %.1f, Perlmutter %.1f, "
              "Frontier %.1f\n\n",
              report::ridgeIntensity(*gpus[0], true),
              report::ridgeIntensity(*gpus[1], true),
              report::ridgeIntensity(*gpus[2], true));

  Table t({"System", "Side", "N", "Intensity", "GFLOP/s", "Bound",
           "Time (ms)"});
  t.setTitle("Blocked DGEMM proxy (b = 256, 90% compute efficiency)");
  t.setAlign(1, Align::Left);
  t.setAlign(5, Align::Left);
  for (const char* name : {"Frontier", "Perlmutter", "Summit", "Sawtooth",
                           "Trinity"}) {
    const machines::Machine& m = machines::byName(name);
    for (const bool device : {false, true}) {
      if (device && !m.accelerated()) {
        continue;
      }
      workload::GemmConfig cfg;
      cfg.useDevice = device;
      const auto r = workload::runGemm(m, cfg);
      t.addRow({name, device ? "device" : "host", "4096",
                formatFixed(r.intensityFlopsPerByte, 1),
                formatFixed(r.achievedGflops, 0),
                r.computeBound ? "compute" : "memory",
                formatFixed(r.total.ms(), 2)});
    }
  }
  std::fputs(t.renderAscii().c_str(), stdout);
  std::printf(
      "\nAt b=256 the blocked GEMM's ~32 flops/byte clears every ridge "
      "point (the tightest are Theta's ~22 and the MI250X GCD's ~18): "
      "dense kernels are compute-bound everywhere, which is exactly why "
      "the paper measures bandwidth and latency instead of FLOPS.\n");
  return 0;
}
