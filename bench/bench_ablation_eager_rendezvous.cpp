/// \file bench_ablation_eager_rendezvous.cpp
/// \brief Ablation: locate the eager->rendezvous protocol step in the
/// osu_latency size sweep. The paper's tables report only the
/// small-message (eager) regime; this bench shows where the protocol
/// switch falls and how large the handshake step is on each machine.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "machines/registry.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"

int main(int argc, char** argv) {
  using namespace nodebench;
  const auto opt = benchtool::optionsFromArgs(argc, argv);

  const std::vector<const char*> systems{"Eagle", "Manzano", "Theta",
                                         "Frontier"};
  osu::LatencyConfig cfg;
  cfg.binaryRuns = opt.binaryRuns;
  cfg.iterations = 200;

  Table t({"Size (B)", "Eagle (us)", "Manzano (us)", "Theta (us)",
           "Frontier (us)"});
  t.setTitle(
      "osu_latency one-way latency across the eager threshold (8 KiB)");
  for (std::uint64_t size = 1024; size <= 64 * 1024; size *= 2) {
    for (const std::uint64_t probe : {size, size + 1}) {
      if (probe != size && size != 8192) {
        continue;  // the +1 probe only matters at the threshold
      }
      std::vector<std::string> row{std::to_string(probe)};
      for (const char* name : systems) {
        const auto& m = machines::byName(name);
        const auto [a, b] = osu::onSocketPair(m);
        const osu::LatencyBenchmark bench(m, a, b,
                                          mpisim::BufferSpace::Kind::Host);
        cfg.messageSize = ByteCount::bytes(probe);
        row.push_back(bench.measure(cfg).latencyUs.toString());
      }
      t.addRow(row);
    }
  }
  std::fputs(t.renderAscii().c_str(), stdout);
  std::printf(
      "\nThe 8193 B row shows the rendezvous handshake step; its height "
      "scales with the machine's MPI software overhead (largest on "
      "Theta's old cray-mpich stack).\n");
  return 0;
}
