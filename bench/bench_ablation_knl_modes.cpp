/// \file bench_ablation_knl_modes.cpp
/// \brief Ablation: the paper attributes part of the KNL systems'
/// below-peak bandwidth to "overheads of managing the cache" in quad
/// cache mode. This bench re-runs the Table 4 BabelStream measurement on
/// Trinity and Theta with the cache-management overhead removed (flat /
/// MCDRAM-as-memory what-if).

#include <cstdio>

#include "babelstream/driver.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "bench_common.hpp"
#include "machines/registry.hpp"

int main(int argc, char** argv) {
  using namespace nodebench;
  const auto opt = benchtool::optionsFromArgs(argc, argv);

  Table t({"System", "Mode", "Single (GB/s)", "All (GB/s)"});
  t.setTitle("KNL MCDRAM mode what-if (quad-cache vs flat)");

  for (const char* name : {"Trinity", "Theta"}) {
    const machines::Machine& m = machines::byName(name);
    babelstream::DriverConfig cfg;
    cfg.binaryRuns = opt.binaryRuns;
    cfg.arrayBytes = opt.cpuArrayBytes;

    const auto measure = [&](bool flat, const ompenv::OmpConfig& omp) {
      babelstream::SimOmpBackend backend(m, omp);
      if (flat) {
        backend.setCacheModeOverride(1.0);
      }
      return babelstream::run(backend, cfg).best().bandwidthGBps;
    };

    const ompenv::OmpConfig one{1, ompenv::ProcBind::True,
                                ompenv::Places::NotSet};
    const ompenv::OmpConfig all{m.coreCount(), ompenv::ProcBind::Spread,
                                ompenv::Places::Cores};
    t.addRow({name, "quad-cache (measured)", measure(false, one).toString(),
              measure(false, all).toString()});
    t.addRow({name, "flat (what-if)", measure(true, one).toString(),
              measure(true, all).toString()});
  }
  std::fputs(t.renderAscii().c_str(), stdout);
  std::printf(
      "\nThe flat-mode rows remove the modelled 15%% cache-management "
      "factor. Even so, Theta stays far below Intel's >450 GB/s MCDRAM "
      "figure: the calibration preserves the paper's 'suspiciously low' "
      "Theta anomaly rather than explaining it away.\n");
  return 0;
}
