#include "netsim/network.hpp"

#include <vector>

#include "core/rng.hpp"
#include "core/strings.hpp"
#include "mpisim/analytic.hpp"
#include "trace/trace.hpp"

namespace nodebench::netsim {

using machines::Machine;
using mpisim::BufferSpace;
using mpisim::Communicator;
using mpisim::InterNodeParams;
using mpisim::MpiWorld;
using mpisim::RankPlacement;
using mpisim::Request;
using namespace nodebench::literals;

InterNodeParams networkFor(const Machine& m) {
  // Representative parameter sets for the interconnect families of the
  // studied systems (per-direction figures from public documentation):
  //  - HPE Slingshot-11 (Frontier, Perlmutter, Polaris, RZVernal, Tioga):
  //    200 Gb/s NICs (25 GB/s), ~2 us end-to-end small-message latency.
  //  - Mellanox EDR InfiniBand dual-rail (Summit, Sierra, Lassen):
  //    2 x 12.5 GB/s, ~1 us latency.
  //  - Cray Aries (Trinity, Theta): ~10 GB/s injection, ~1.3 us.
  //  - EDR InfiniBand single-rail (Sawtooth, Eagle) and Intel Omni-Path
  //    (Manzano): ~12.5 GB/s, ~1.1 us.
  const std::string& accel = m.info.acceleratorModel;
  if (accel == "AMD MI250X" || accel == "NVIDIA A100") {
    return InterNodeParams{"Slingshot-11", 0.80_us, 0.30_us,
                           Bandwidth::gbps(25.0), Bandwidth::gbps(25.0), 16,
                           ByteCount::kib(8)};
  }
  if (!accel.empty()) {  // the Power9 + V100 systems
    return InterNodeParams{"EDR-IB dual-rail", 0.40_us, 0.15_us,
                           Bandwidth::gbps(25.0), Bandwidth::gbps(12.5), 18,
                           ByteCount::kib(8)};
  }
  if (m.info.cpuModel.find("Phi") != std::string::npos) {
    return InterNodeParams{"Aries", 0.55_us, 0.10_us, Bandwidth::gbps(10.2),
                           Bandwidth::gbps(5.25), 16, ByteCount::kib(8)};
  }
  if (m.info.name == "Manzano") {
    return InterNodeParams{"Omni-Path", 0.45_us, 0.12_us,
                           Bandwidth::gbps(12.3), Bandwidth::gbps(12.3), 24,
                           ByteCount::kib(8)};
  }
  return InterNodeParams{"EDR-IB", 0.45_us, 0.15_us, Bandwidth::gbps(12.5),
                         Bandwidth::gbps(12.5), 18, ByteCount::kib(8)};
}

namespace {

/// Builds the two-node world: rank 0 on node 0 and rank 1 on node 1,
/// both on core 0 (and GPU 0 in device mode).
MpiWorld makeTwoNodeWorld(const Machine& m, bool deviceBuffers,
                          const InterNodeParams& network) {
  if (deviceBuffers) {
    NB_EXPECTS_MSG(m.accelerated() && m.topology.gpuCount() >= 1,
                   "device buffers need a GPU machine");
  }
  std::vector<RankPlacement> placements(2);
  for (int node = 0; node < 2; ++node) {
    placements[node].core = topo::CoreId{0};
    placements[node].node = node;
    if (deviceBuffers) {
      placements[node].gpu = 0;
    }
  }
  return MpiWorld(m, std::move(placements), network);
}

}  // namespace

InterNodeResult measureInterNode(const Machine& m,
                                 const InterNodeConfig& cfg) {
  NB_EXPECTS(cfg.iterations > 0 && cfg.binaryRuns > 0);
  const InterNodeParams network =
      cfg.network ? *cfg.network : networkFor(m);
  MpiWorld world = makeTwoNodeWorld(m, cfg.deviceBuffers, network);
  if (cfg.watchdog) {
    world.setWatchdog(*cfg.watchdog);
  }

  Duration latencyElapsed = Duration::zero();
  double bwTruth = 0.0;
  constexpr int kTag = 11;
  constexpr int kWindow = 32;
  const ByteCount streamSize = ByteCount::kib(64);
  const double streamBytes =
      streamSize.asDouble() * kWindow * (cfg.iterations / 10 + 1);

  // With no loss plan, watchdog, or tracing there is no fault
  // interleaving to simulate: compose both phases in closed form
  // (bit-identical; see mpisim/analytic.hpp). A watchdog needs the
  // scheduler to raise TimeoutError.
  const bool fastPath = !cfg.watchdog && network.packetLossRate <= 0.0 &&
                        mpisim::analytic::fastPathEligible();
  if (fastPath) {
    const auto composed = mpisim::analytic::interNodePairElapsed(
        m, network, cfg.deviceBuffers, cfg.messageSize, cfg.iterations);
    latencyElapsed = composed.latencyElapsed;
    bwTruth = streamBytes / composed.streamElapsed.ns();
  } else {
    world.run([&](Communicator& c) {
      const int peer = c.rank() ^ 1;
      const bool pinger = c.rank() == 0;
      const BufferSpace space = cfg.deviceBuffers ? BufferSpace::onDevice(0)
                                                  : BufferSpace::host();
      c.barrier();

      // Phase 1: latency ping-pong on the idle network.
      if (pinger) {
        const Duration start = c.now();
        for (int i = 0; i < cfg.iterations; ++i) {
          c.send(peer, kTag, cfg.messageSize, space);
          c.recv(peer, kTag, cfg.messageSize, space);
        }
        latencyElapsed = c.now() - start;
      } else {
        for (int i = 0; i < cfg.iterations; ++i) {
          c.recv(peer, kTag, cfg.messageSize, space);
          c.send(peer, kTag, cfg.messageSize, space);
        }
      }
      c.barrier();

      // Phase 2: windowed stream (osu_bw style) closed by a 4-byte ack.
      const Duration start = c.now();
      for (int it = 0; it < cfg.iterations / 10 + 1; ++it) {
        if (pinger) {
          std::vector<Request> reqs;
          reqs.reserve(kWindow);
          for (int wi = 0; wi < kWindow; ++wi) {
            reqs.push_back(c.isend(peer, kTag + 1, streamSize, space));
          }
          c.waitAll(reqs);
          c.recv(peer, kTag + 2, ByteCount::bytes(4), space);
        } else {
          std::vector<Request> reqs;
          reqs.reserve(kWindow);
          for (int wi = 0; wi < kWindow; ++wi) {
            reqs.push_back(c.irecv(peer, kTag + 1, streamSize, space));
          }
          c.waitAll(reqs);
          c.send(peer, kTag + 2, ByteCount::bytes(4), space);
        }
      }
      if (pinger) {
        bwTruth = streamBytes / (c.now() - start).ns();
      }
    });
  }

  const double latencyTruthUs =
      latencyElapsed.us() / (2.0 * cfg.iterations);

  const NoiseModel noise(m.hostMpi.cv);
  Welford latAcc;
  Welford bwAcc;
  for (int run = 0; run < cfg.binaryRuns; ++run) {
    // The trailing +1 is part of the seed: the faults and trace outputs
    // are pinned with it.
    Xoshiro256 rng(cfg.seed + m.seed +
                   0x9e3779b9u * static_cast<std::uint64_t>(run) + 1u);
    latAcc.add(latencyTruthUs * noise.sampleFactor(rng));
    bwAcc.add(bwTruth * noise.sampleFactor(rng));
  }
  if (trace::TraceBuffer* tb = trace::current()) {
    tb->count("netsim.internode_runs");
    tb->count("netsim.retransmits", world.retransmitCount());
  }
  return InterNodeResult{cfg.messageSize, latAcc.summary(), bwAcc.summary(),
                         world.retransmitCount()};
}

}  // namespace nodebench::netsim
