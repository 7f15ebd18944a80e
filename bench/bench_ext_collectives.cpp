/// \file bench_ext_collectives.cpp
/// \brief Extension: collective latency (OSU osu_allreduce/osu_bcast
/// style) across machines and rank counts — part of the inter-node
/// future-work agenda, exercised here within a node.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "machines/registry.hpp"
#include "osu/collectives.hpp"

int main(int argc, char** argv) {
  using namespace nodebench;
  const auto opt = benchtool::optionsFromArgs(argc, argv);

  const std::vector<osu::Collective> collectives{
      osu::Collective::Barrier, osu::Collective::Bcast,
      osu::Collective::Reduce, osu::Collective::Allreduce,
      osu::Collective::Allgather, osu::Collective::Alltoall};

  for (const char* name : {"Eagle", "Frontier"}) {
    const auto& m = machines::byName(name);
    Table t({"Collective", "8 ranks, 8 B (us)", "8 ranks, 64 KiB (us)",
             "32 ranks, 8 B (us)"});
    t.setTitle(std::string(name) + ": per-operation collective latency");
    t.setAlign(0, Align::Left);
    // One task per collective (its three configurations run inline);
    // rows print in operation order.
    const auto rows = par::parallelMap(
        collectives,
        [&](const osu::Collective& coll) {
          osu::CollectiveConfig cfg;
          cfg.collective = coll;
          cfg.binaryRuns = opt.binaryRuns;
          cfg.iterations = 20;

          cfg.ranks = 8;
          cfg.messageSize = ByteCount::bytes(8);
          const auto small8 = osu::measureCollective(m, cfg);
          cfg.messageSize = ByteCount::kib(64);
          const auto big8 = osu::measureCollective(m, cfg);
          cfg.ranks = 32;
          cfg.messageSize = ByteCount::bytes(8);
          const auto small32 = osu::measureCollective(m, cfg);

          return std::vector<std::string>{
              std::string(osu::collectiveName(coll)),
              small8.latencyUs.toString(), big8.latencyUs.toString(),
              small32.latencyUs.toString()};
        },
        opt.jobs);
    for (const auto& row : rows) {
      t.addRow(row);
    }
    std::fputs(t.renderAscii().c_str(), stdout);
    std::printf("\n");
  }
  std::printf(
      "Tree collectives scale ~log2(ranks) in the latency term; "
      "ring allgather and pairwise alltoall scale linearly — visible in "
      "the 8-vs-32-rank columns.\n");
  return 0;
}
