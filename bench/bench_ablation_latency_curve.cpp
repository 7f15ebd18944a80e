/// \file bench_ablation_latency_curve.cpp
/// \brief Full osu_latency message-size curve (0 B .. 1 MiB) for a
/// representative machine of each class — the data the paper's
/// small-message latency cells are sampled from.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "machines/registry.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/ascii_chart.hpp"

int main(int argc, char** argv) {
  using namespace nodebench;
  const auto opt = benchtool::optionsFromArgs(argc, argv);

  struct Case {
    const char* machine;
    const char* label;
    bool device;
  };
  const std::vector<Case> cases{
      {"Eagle", "Eagle host on-socket", false},
      {"Trinity", "Trinity host on-socket", false},
      {"Frontier", "Frontier GPU class A", true},
      {"Summit", "Summit GPU class A", true},
  };

  osu::LatencyConfig cfg;
  cfg.binaryRuns = opt.binaryRuns;
  cfg.iterations = 100;

  std::vector<std::vector<osu::LatencyResult>> curves;
  for (const Case& c : cases) {
    const machines::Machine& m = machines::byName(c.machine);
    const auto [a, b] = c.device
                            ? osu::devicePair(m, topo::LinkClass::A)
                            : osu::onSocketPair(m);
    const osu::LatencyBenchmark bench(
        m, a, b,
        c.device ? mpisim::BufferSpace::Kind::Device
                 : mpisim::BufferSpace::Kind::Host);
    curves.push_back(bench.sweep(ByteCount::mib(1), cfg));
  }

  Table t({"Size (B)", cases[0].label, cases[1].label, cases[2].label,
           cases[3].label});
  t.setTitle("osu_latency one-way latency (us) vs message size");
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    std::vector<std::string> row{
        std::to_string(curves[0][i].messageSize.count())};
    for (const auto& curve : curves) {
      row.push_back(formatFixed(curve[i].latencyUs.mean, 3));
    }
    t.addRow(row);
  }
  std::fputs(t.renderAscii().c_str(), stdout);

  // Figure view: log-log latency curves (skip the 0 B point for log x).
  std::vector<double> xs;
  std::vector<report::Series> series(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    series[c].name = cases[c].label;
  }
  for (std::size_t i = 1; i < curves[0].size(); ++i) {
    xs.push_back(static_cast<double>(curves[0][i].messageSize.count()));
    for (std::size_t c = 0; c < curves.size(); ++c) {
      series[c].y.push_back(curves[c][i].latencyUs.mean);
    }
  }
  report::ChartOptions copt;
  copt.logX = true;
  copt.logY = true;
  copt.xLabel = "message size (B, log2)";
  copt.yLabel = "one-way latency (us, log2)";
  std::printf("\n%s", report::renderChart(xs, series, copt).c_str());
  std::printf(
      "\nFlat eager floor for small sizes (the value the paper reports), "
      "a handshake step at 8 KiB, then bandwidth-dominated growth.\n");
  return 0;
}
