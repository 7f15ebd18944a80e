/// \file bench_ext_osu_bw.cpp
/// \brief Extension: OSU bandwidth (osu_bw) and bidirectional bandwidth
/// (osu_bibw) sweeps on representative machines — the point-to-point
/// counterparts of the latency-only selection in the paper.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "machines/registry.hpp"
#include "osu/bandwidth.hpp"
#include "osu/pairs.hpp"

int main(int argc, char** argv) {
  using namespace nodebench;
  const auto opt = benchtool::optionsFromArgs(argc, argv);

  const std::vector<const char*> systems{"Eagle", "Sawtooth", "Frontier",
                                         "Summit"};
  osu::BandwidthConfig cfg;
  cfg.binaryRuns = opt.binaryRuns;
  cfg.iterations = 5;

  for (const bool bidirectional : {false, true}) {
    Table t({"Size (B)", "Eagle", "Sawtooth", "Frontier", "Summit"});
    t.setTitle(std::string(bidirectional ? "osu_bibw" : "osu_bw") +
               ": on-socket host window bandwidth (GB/s)");
    // One sweep task per machine; rows assemble in fixed column order.
    const auto sweeps = par::parallelMap(
        systems,
        [&](const char* const& name) {
          const auto& m = machines::byName(name);
          const auto [a, b] = osu::onSocketPair(m);
          const osu::BandwidthBenchmark bench(
              m, a, b, mpisim::BufferSpace::Kind::Host, bidirectional);
          return bench.sweep(ByteCount::mib(4), cfg);
        },
        opt.jobs);
    for (std::size_t i = 0; i < sweeps[0].size(); ++i) {
      std::vector<std::string> row{
          std::to_string(sweeps[0][i].messageSize.count())};
      for (const auto& sweep : sweeps) {
        row.push_back(formatFixed(sweep[i].bandwidthGBps.mean, 2));
      }
      t.addRow(row);
    }
    std::fputs(t.renderAscii().c_str(), stdout);
    std::printf("\n");
  }
  std::printf(
      "Small messages are overhead-bound (rate ~ size/softwareOverhead); "
      "large ones converge to the path copy bandwidth, with bibw "
      "approaching 2x bw where the two directions do not share a "
      "bottleneck.\n");
  return 0;
}
