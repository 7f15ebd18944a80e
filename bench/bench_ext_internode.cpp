/// \file bench_ext_internode.cpp
/// \brief Extension (paper future-work #1): inter-node latency and
/// bandwidth over representative interconnect models, plus a
/// neighbour-congestion sweep where several pairs share one NIC.

#include <cstdio>

#include "bench_common.hpp"
#include "machines/registry.hpp"
#include "netsim/network.hpp"

int main(int argc, char** argv) {
  using namespace nodebench;
  const auto opt = benchtool::optionsFromArgs(argc, argv);

  Table t({"System", "Network", "Latency (us)", "BW/pair (GB/s)",
           "Device lat (us)"});
  t.setTitle("Inter-node point-to-point (2 nodes, idle network)");
  t.setAlign(1, Align::Left);
  for (const machines::Machine& m : machines::allMachines()) {
    netsim::InterNodeConfig cfg;
    cfg.binaryRuns = opt.binaryRuns;
    const auto host = netsim::measureInterNode(m, cfg);
    std::string deviceCell = "-";
    if (m.accelerated()) {
      netsim::InterNodeConfig dcfg = cfg;
      dcfg.deviceBuffers = true;
      deviceCell =
          netsim::measureInterNode(m, dcfg).latencyUs.toString();
    }
    t.addRow({m.info.name, netsim::networkFor(m).name,
              host.latencyUs.toString(),
              host.perPairBandwidthGBps.toString(), deviceCell});
  }
  std::fputs(t.renderAscii().c_str(), stdout);

  std::printf("\n");
  Table c({"Pairs/node", "BW per pair (GB/s)", "Aggregate (GB/s)",
           "Efficiency"});
  c.setTitle("Frontier: NIC congestion sweep (64 KiB windowed streams)");
  const auto& frontier = machines::byName("Frontier");
  netsim::InterNodeConfig ccfg;
  ccfg.binaryRuns = opt.binaryRuns;
  const auto sweep =
      netsim::congestionSweep(frontier, ByteCount::kib(64), 8, ccfg);
  const double solo = sweep.front().perPairBandwidthGBps.mean;
  for (const auto& point : sweep) {
    const double perPair = point.perPairBandwidthGBps.mean;
    const double aggregate = perPair * point.pairsPerNode;
    c.addRow({std::to_string(point.pairsPerNode), formatFixed(perPair, 2),
              formatFixed(aggregate, 2),
              formatFixed(aggregate / solo, 2)});
  }
  std::fputs(c.renderAscii().c_str(), stdout);
  std::printf(
      "\nPer-pair bandwidth halves as pairs double once the shared NIC "
      "saturates (aggregate efficiency ~flat): the injection-bandwidth "
      "contention the paper's future-work section targets. Device "
      "latency adds the GPU<->NIC base cost — negligible on the GPU-RMA "
      "MI250X systems, tens of microseconds on the V100 staging path.\n");
  return 0;
}
