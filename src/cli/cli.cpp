/// \file cli.cpp
/// \brief The `nodebench` command-line tool: one flag table per command,
/// the command bodies, and usage().
///
/// Subcommands:
///   list                          system inventory (Tables 2+3)
///   topo <machine> [--dot]        node diagram / DOT export (Figures 1-3)
///   table <n|all> [--runs N]      regenerate paper table n (1..9)
///   stream <machine> [--device d] BabelStream on one machine
///   latency <machine> [--pair P] [--size B]   osu_latency (P: on-socket,
///                                 on-node, A, B, C, D)
///   commscope <machine>           Comm|Scope suite on one machine
///   trace [machine] [--out F]     tracing demo (Chrome trace + metrics)
///   native [--threads N]          real BabelStream + ping-pong on this host
///
/// `table`, `export` and the single-machine bench subcommands also accept
/// `--trace FILE` (Chrome trace_event JSON, loadable in Perfetto) and
/// `--metrics` (aggregated counters/histograms appendix on stdout).
///
/// Every command declares its flags once, in commands(); flags::parse
/// refuses what the table does not allow before a body runs, and the
/// campaign flags come from report::CampaignSpec.

#include "cli/cli.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "babelstream/driver.hpp"
#include "babelstream/sim_device_backend.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "campaign/shard.hpp"
#include "commscope/commscope.hpp"
#include "core/cancel.hpp"
#include "core/error.hpp"
#include "faults/fault_plan.hpp"
#include "gpusim/gpu_runtime.hpp"
#include "machines/machine_card.hpp"
#include "machines/machine_json.hpp"
#include "machines/registry.hpp"
#include "native/pingpong_native.hpp"
#include "native/stream_native.hpp"
#include "netsim/network.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/balance.hpp"
#include "report/campaign_spec.hpp"
#include "report/export.hpp"
#include "report/figures.hpp"
#include "report/reports.hpp"
#include "report/tables.hpp"
#include "serve/server.hpp"
#include "stats/compare.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "supervise/journal.hpp"
#include "supervise/supervisor.hpp"
#include "topo/dot.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace nodebench::cli {

std::string usageText() {
  return
      "usage: nodebench <command> [args]\n"
      "  list                      system inventory (Tables 2+3)\n"
      "  topo <machine> [--dot]    node diagram (Figures 1-3) / DOT export\n"
      "  table <1..9|all> [--runs N] [--jobs N] [--faults F]  regenerate a"
      " paper table\n"
      "  sweep [--runs N] [--jobs N] [--faults F]  working-set BabelStream\n"
      "          triad bandwidth across the cache ladder (L1 -> DRAM),\n"
      "          machine-comparison table + ascii knee chart\n"
      "  chase [--runs N] [--jobs N] [--faults F]  pointer-chase\n"
      "          dependent-load latency ladder (ns/access and clk/op per\n"
      "          working set); both are `table sweep`/`table chase`\n"
      "          aliases, so every table campaign flag (--journal,\n"
      "          --resume, --store, --shard, ...) composes\n"
      "  stream <machine> [--device N]  BabelStream (simulated)\n"
      "  latency <machine> [--pair on-socket|on-node|A|B|C|D] [--size B]\n"
      "  commscope <machine>       Comm|Scope suite (simulated)\n"
      "  trace [machine] [--out F]  tracing demo: ping-pong + GPU +\n"
      "                            lossy inter-node legs -> Chrome JSON\n"
      "  card <machine> [--json]   calibrated parameter card\n"
      "  diff <machine> <machine>  side-by-side comparison\n"
      "  balance                   machine-balance (flops/byte) table\n"
      "  export --dir D [--runs N] [--jobs N] [--faults F]  write tables as"
      " CSV + Markdown\n"
      "  faults <plan.json> [--runs N] [--jobs N]  fault-injection demo:\n"
      "                            tables + diagnostics under the plan\n"
      "  native [--threads N]      real measurements on this host\n"
      "  table/stream/latency/commscope/export/faults also accept\n"
      "  --trace FILE (Chrome trace JSON) and --metrics (summary)\n"
      "  table/export also accept --journal FILE [--resume]: crash-safe\n"
      "  campaigns (journal completed cells; resume replays them)\n"
      "  table/export also accept --store FILE: record every cell's raw\n"
      "  per-repetition samples for compare/gate (with --resume, the\n"
      "  store is reattached and already-stored cells are skipped)\n"
      "  compare <baseline.store> <candidate.store> [--jobs N]\n"
      "          [--alpha A] [--threshold PCT]  per-cell statistical\n"
      "          regression/improvement report (bootstrap CIs, Welch t,\n"
      "          Mann-Whitney U, effect sizes)\n"
      "  gate <baseline.store> <candidate.store> [--jobs N] [--alpha A]\n"
      "          [--threshold PCT]  CI gate: exit 3 when any cell shows a\n"
      "          statistically significant, material regression\n"
      "  table/export also accept --shard i/N (requires --journal):\n"
      "  measure only shard i's deterministic slice of the cell grid\n"
      "  shard <1..9|all> --shards N --journal BASE [--store BASE]\n"
      "          [--runs N] [--jobs N] [--faults F] [--resume]\n"
      "          [--merge-out F] [--merge-store-out F]  fork N worker\n"
      "          processes, each measuring shard i/N into\n"
      "          BASE.shard<i>of<N> (one attempt each); exits 43 when\n"
      "          interrupted (rerun with --resume to finish), 44 when a\n"
      "          worker failed (its slice is a gap: partial merge + gap\n"
      "          manifest); without --resume, refuses existing shard\n"
      "          files and merge outputs\n"
      "  merge --out F [--stores S]... [--store-out F] <journals...>\n"
      "          validate a complete shard set and write the merged\n"
      "          journal (and store) byte-identical to a single-process\n"
      "          --jobs 1 run; refuses mismatched/overlapping/incomplete\n"
      "          shard sets, naming the offending shard\n"
      "  merge also accepts --allow-partial [--gap-out F]\n"
      "          [--supervisor-journal F]: merge an incomplete shard set,\n"
      "          writing a gap manifest naming every missing shard/cell\n"
      "          (annotated from the supervisor's quarantine record) and\n"
      "          exiting 44 — a smaller table is never silent\n"
      "  supervise <1..9|all> --shards N --journal BASE [--store BASE]\n"
      "          [--workers N] [--runs N] [--jobs N] [--faults F]\n"
      "          [--max-attempts K] [--backoff-base-ms B] [--backoff-cap-ms C]\n"
      "          [--heartbeat-interval-ms H] [--heartbeat-timeout-ms T]\n"
      "          [--attempt-timeout-ms W] [--resume] [--merge-out F]\n"
      "          [--merge-store-out F] [--gap-out F]\n"
      "          [--supervisor-journal F]  fault-tolerant\n"
      "          lease-based campaign coordinator: workers pull shard\n"
      "          leases, heartbeat, and journal; dead/wedged workers are\n"
      "          reassigned with deterministic backoff and resume from\n"
      "          their crash-safe journals; after K failures a shard is\n"
      "          quarantined and the merge degrades to --allow-partial\n"
      "          (exit 44, gap manifest); the supervisor itself survives\n"
      "          SIGKILL via its own journal + --resume; exits 43 and\n"
      "          refuses existing files as `shard` does\n"
      "  serve --socket PATH|--port N [--state-dir D] [--resume]\n"
      "          [--queue-depth N] [--tenant-queue N] [--tenant-inflight N]\n"
      "          [--executors N] [--io-threads N] [--memo-max-entries N]\n"
      "          crash-tolerant\n"
      "          measurement daemon: POST campaign specs to /requests,\n"
      "          GET /requests/<id> and /healthz; SIGTERM drains\n"
      "          gracefully, restart --resume completes interrupted work\n"
      "  journaled table/export runs stop cleanly on SIGINT/SIGTERM: the\n"
      "  in-flight cell finishes and is journalled, the process exits " +
          std::to_string(kInterruptedExitCode) +
      ",\n  and --resume continues byte-identically\n";
}

namespace {

using flags::Flag;
using flags::Kind;
using flags::Parsed;
using report::CampaignSpec;

int usage() {
  std::cout << usageText();
  return 2;
}

/// Writes the session's Chrome trace JSON to `path`. The stream is closed
/// before it is checked: a trace smaller than the stream buffer reaches
/// the file only at that final flush, whose failure (ENOSPC) a check
/// before close would miss.
void writeTraceFile(const std::string& path, const trace::Session& session) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw Error("cannot open trace output file: " + path);
  }
  out << trace::chromeJson(session);
  out.close();
  if (!out) {
    throw Error("failed writing trace output file: " + path);
  }
}

int cmdList(const Parsed& /*args*/) {
  std::cout << report::buildTable2().renderAscii() << '\n'
            << report::buildTable3().renderAscii();
  return 0;
}

int cmdTopo(const Parsed& args) {
  const machines::Machine& m = machines::byName(args.positionals[0]);
  if (args.has("--dot")) {
    std::cout << topo::toDot(m.topology, m.info.name);
  } else {
    std::cout << report::nodeDiagram(m) << '\n'
              << report::linkClassLegend(m);
  }
  return 0;
}

int cmdTable(const Parsed& args) {
  if (args.positionals.size() > 1) {
    throw Error("table expects exactly one selector (1..9, all, sweep or "
                "chase), got " + std::to_string(args.positionals.size()));
  }
  CampaignSpec spec = CampaignSpec::parse(args);
  spec.selector = args.positionals[0];
  // Resolved before any journal, store or heartbeat file exists, so a bad
  // selector leaves nothing behind.
  const std::span<const report::Report> reports =
      report::selectReports(spec.selector);
  report::OpenCampaign opened(spec);
  opened.run([&](const report::TableOptions& opt) {
    report::ReportRun run(opt);
    for (const report::Report& r : reports) {
      std::cout << r.render(run).ascii() << '\n';
    }
    // Fault-free runs collect no incidents, so stdout stays byte-identical
    // to the pre-resilience harness.
    const std::string diagnostics =
        report::renderDiagnostics(run.incidents());
    if (!diagnostics.empty()) {
      std::cout << diagnostics;
    }
  });
  return 0;
}

void printStream(const babelstream::RunResult& result) {
  for (const auto& op : result.ops) {
    std::printf("  %-6s %10.2f +- %.2f GB/s\n",
                std::string(babelstream::streamOpName(op.op)).c_str(),
                op.bandwidthGBps.mean, op.bandwidthGBps.stddev);
  }
  std::printf("  best: %s (%s)\n",
              std::string(babelstream::streamOpName(result.best().op)).c_str(),
              result.best().bandwidthGBps.toString().c_str());
}

int cmdStream(const Parsed& args) {
  int device = 0;
  const bool deviceGiven = args.read("--device", device);
  const machines::Machine& m = machines::byName(args.positionals[0]);
  const int devices = m.topology.gpuCount();
  if (deviceGiven && device >= devices) {
    throw Error("--device " + std::to_string(device) +
                " is out of range: " + m.info.name + " has " +
                std::to_string(devices) + " devices");
  }
  babelstream::DriverConfig cfg;
  {
    const trace::Scope traceScope(m.info.name + "/babelstream");
    if (m.accelerated()) {
      cfg.arrayBytes = ByteCount::gib(1);
      babelstream::SimDeviceBackend backend(m, device);
      std::cout << "BabelStream (device backend) on " << m.info.name << ":\n";
      printStream(babelstream::run(backend, cfg));
    } else {
      const ompenv::OmpConfig omp{m.coreCount(), ompenv::ProcBind::Spread,
                                  ompenv::Places::Cores};
      babelstream::SimOmpBackend backend(m, omp);
      std::cout << "BabelStream (OpenMP backend, " << omp.toString()
                << ") on " << m.info.name << ":\n";
      printStream(babelstream::run(backend, cfg));
    }
  }
  return 0;
}

int cmdLatency(const Parsed& args) {
  std::string pair = "on-socket";
  args.read("--pair", pair);
  osu::LatencyConfig cfg;
  std::uint64_t size = 0;
  if (args.read("--size", size)) {
    cfg.messageSize = ByteCount::bytes(size);
  }
  const machines::Machine& m = machines::byName(args.positionals[0]);

  std::optional<osu::PlacementPair> ranks;
  auto kind = mpisim::BufferSpace::Kind::Host;
  if (pair == "on-socket") {
    ranks = osu::onSocketPair(m);
  } else if (pair == "on-node") {
    ranks = osu::onNodePair(m);
  } else if (pair.size() == 1 && pair[0] >= 'A' && pair[0] <= 'D') {
    const auto linkClass = static_cast<topo::LinkClass>(pair[0] - 'A');
    if (!m.topology.representativePair(linkClass)) {
      throw Error("--pair " + pair + ": " + m.info.name +
                  " has no GPU pair of link class " + pair);
    }
    ranks = osu::devicePair(m, linkClass);
    kind = mpisim::BufferSpace::Kind::Device;
  } else {
    throw Error("unknown --pair value: " + pair);
  }

  {
    const trace::Scope traceScope(m.info.name + "/osu_latency");
    const osu::LatencyBenchmark bench(m, ranks->first, ranks->second, kind);
    const auto result = bench.measure(cfg);
    std::printf("osu_latency on %s (%s, %llu B): %s us\n",
                m.info.name.c_str(), pair.c_str(),
                static_cast<unsigned long long>(cfg.messageSize.count()),
                result.latencyUs.toString().c_str());
  }
  return 0;
}

int cmdCommScope(const Parsed& args) {
  const machines::Machine& m = machines::byName(args.positionals[0]);
  if (!m.accelerated()) {
    throw Error("commscope needs an accelerator machine: " + m.info.name +
                " has 0 devices");
  }
  {
    const trace::Scope traceScope(m.info.name + "/commscope");
    commscope::CommScope scope(m);
    const commscope::Config cfg;
    const auto all = scope.measureAll(cfg);
    std::printf("Comm|Scope on %s:\n", m.info.name.c_str());
    std::printf("  kernel launch : %s us\n", all.launchUs.toString().c_str());
    std::printf("  sync wait     : %s us\n", all.waitUs.toString().c_str());
    std::printf("  H<->D latency : %s us\n",
                all.hostDeviceLatencyUs.toString().c_str());
    std::printf("  H<->D bw      : %s GB/s\n",
                all.hostDeviceBandwidthGBps.toString().c_str());
    for (int c = 0; c < 4; ++c) {
      if (all.d2dLatencyUs[c]) {
        std::printf("  D2D class %c   : %s us\n", static_cast<char>('A' + c),
                    all.d2dLatencyUs[c]->toString().c_str());
      }
    }
  }
  return 0;
}

int cmdDiff(const Parsed& args) {
  const machines::Machine& a = machines::byName(args.positionals[0]);
  const machines::Machine& b = machines::byName(args.positionals[1]);

  Table t({"Quantity", a.info.name, b.info.name, "ratio"});
  t.setTitle("Side-by-side: " + a.info.name + " vs " + b.info.name);
  const auto row = [&](const std::string& label, double va, double vb,
                       int precision = 2) {
    t.addRow({label, formatFixed(va, precision), formatFixed(vb, precision),
              formatFixed(vb != 0.0 ? va / vb : 0.0, 2)});
  };

  const auto streamOf = [](const machines::Machine& m) {
    babelstream::DriverConfig cfg;
    cfg.binaryRuns = 20;
    if (m.accelerated()) {
      cfg.arrayBytes = ByteCount::gib(1);
      babelstream::SimDeviceBackend backend(m, 0);
      return babelstream::run(backend, cfg).best().bandwidthGBps.mean;
    }
    babelstream::SimOmpBackend backend(
        m, ompenv::OmpConfig{m.coreCount(), ompenv::ProcBind::Spread,
                             ompenv::Places::Cores});
    return babelstream::run(backend, cfg).best().bandwidthGBps.mean;
  };
  const auto hostLatOf = [](const machines::Machine& m) {
    const auto [x, y] = osu::onSocketPair(m);
    osu::LatencyConfig cfg;
    cfg.binaryRuns = 20;
    return osu::LatencyBenchmark(m, x, y, mpisim::BufferSpace::Kind::Host)
        .measure(cfg)
        .latencyUs.mean;
  };

  row("stream bandwidth (GB/s)", streamOf(a), streamOf(b), 1);
  row("host MPI latency (us)", hostLatOf(a), hostLatOf(b));
  if (a.accelerated() && b.accelerated()) {
    const auto devLatOf = [](const machines::Machine& m) {
      const auto [x, y] = osu::devicePair(m, topo::LinkClass::A);
      osu::LatencyConfig cfg;
      cfg.binaryRuns = 20;
      return osu::LatencyBenchmark(m, x, y,
                                   mpisim::BufferSpace::Kind::Device)
          .measure(cfg)
          .latencyUs.mean;
    };
    row("device MPI latency A (us)", devLatOf(a), devLatOf(b));
    commscope::Config cfg;
    cfg.binaryRuns = 20;
    commscope::CommScope sa(a);
    commscope::CommScope sb(b);
    row("kernel launch (us)", sa.kernelLaunchUs(cfg).mean,
        sb.kernelLaunchUs(cfg).mean);
    row("sync wait (us)", sa.syncWaitUs(cfg).mean,
        sb.syncWaitUs(cfg).mean);
    row("H<->D latency (us)", sa.hostDeviceLatencyUs(cfg).mean,
        sb.hostDeviceLatencyUs(cfg).mean);
    row("H<->D bandwidth (GB/s)", sa.hostDeviceBandwidthGBps(cfg).mean,
        sb.hostDeviceBandwidthGBps(cfg).mean);
  }
  std::cout << t.renderAscii();
  return 0;
}

int cmdCard(const Parsed& args) {
  const machines::Machine& m = machines::byName(args.positionals[0]);
  std::cout << (args.has("--json") ? machines::machineJson(m)
                                   : machines::machineCard(m));
  return 0;
}

int cmdBalance(const Parsed& /*args*/) {
  std::cout << report::renderBalance(report::computeBalance()).renderAscii();
  return 0;
}

int cmdExport(const Parsed& args) {
  if (!args.positionals.empty()) {
    // A directory given without --dir would otherwise be ignored and the
    // files written elsewhere.
    throw Error("unexpected argument '" + args.positionals[0] +
                "' (export writes to --dir D)");
  }
  std::string dir = "nodebench-export";
  args.read("--dir", dir);
  report::OpenCampaign opened(CampaignSpec::parse(args));
  opened.run([&](const report::TableOptions& opt) {
    const auto manifest = report::exportAllTables(dir, opt);
    for (const auto& path : manifest.written) {
      std::cout << "wrote " << path.string() << "\n";
    }
  });
  return 0;
}

/// `nodebench faults <plan.json>`: end-to-end fault-injection demo. Runs
/// the measurement tables under the plan (affected cells degrade to
/// "n/a", recovered ones report their retries in the diagnostics
/// appendix), then an inter-node measurement whose packet-loss /
/// brownout parameters come from the same plan, reporting the
/// retransmit count the transport recovery performed.
int cmdFaults(const Parsed& args) {
  CampaignSpec spec = CampaignSpec::parse(args);
  spec.faultsPath = args.positionals[0];
  if (spec.runs == 0) {
    spec.runs = 25;  // demo default; --runs restores full methodology
  }
  const report::OpenCampaign opened(spec);
  const report::TableOptions& opt = opened.options();
  const faults::FaultPlan& plan = *opt.faults;
  std::cout << plan.summary() << '\n';

  report::ReportRun run(opt);
  for (const std::string_view label : {"4", "5", "6", "7"}) {
    std::cout << report::selectReports(label).front().render(run).ascii()
              << '\n';
  }
  const std::string diagnostics = report::renderDiagnostics(run.incidents());
  std::cout << (diagnostics.empty() ? "No incidents: every cell measured "
                                      "on its first attempt.\n"
                                    : diagnostics);

  // Inter-node leg on the first machine the plan touches (any machine if
  // the plan is global-only).
  const machines::Machine* target = nullptr;
  for (const machines::Machine& m : machines::allMachines()) {
    if (plan.touches(m.info.name)) {
      target = &m;
      break;
    }
  }
  if (target != nullptr) {
    const trace::Scope traceScope(target->info.name + "/internode");
    netsim::InterNodeConfig ncfg;
    ncfg.binaryRuns = opt.binaryRuns;
    mpisim::InterNodeParams network = netsim::networkFor(*target);
    plan.applyToNetwork(target->info.name, network);
    ncfg.network = network;
    // Generous virtual-time ceiling: a wedged simulated run aborts with a
    // TimeoutError instead of hanging the demo.
    ncfg.watchdog = Duration::seconds(10.0);
    const auto inter = netsim::measureInterNode(*target, ncfg);
    std::printf(
        "\nInter-node ping-pong on %s under the plan (8 B): %s us, "
        "%llu retransmit(s)\n",
        target->info.name.c_str(), inter.latencyUs.toString().c_str(),
        static_cast<unsigned long long>(inter.retransmits));
  }
  return 0;
}

/// `nodebench trace [machine]`: tracing demo. Runs three instrumented
/// legs on one machine — an intra-node osu_latency ping-pong, a GPU
/// launch/copy/sync sequence (accelerated systems), and an inter-node
/// ping-pong with forced 2% packet loss so the trace shows loss/
/// retransmit recovery — then writes the Chrome trace JSON (open in
/// Perfetto: https://ui.perfetto.dev) and prints the metrics summary.
int cmdTrace(const Parsed& args) {
  std::string outPath = "nodebench-trace.json";
  args.read("--out", outPath);
  const machines::Machine& m = machines::byName(
      args.positionals.empty() ? "Frontier" : args.positionals[0]);
  trace::Session session;

  {
    const trace::Scope traceScope(m.info.name + "/pingpong");
    const auto [a, b] = osu::onSocketPair(m);
    osu::LatencyConfig cfg;
    cfg.binaryRuns = 25;
    const osu::LatencyBenchmark bench(m, a, b,
                                      mpisim::BufferSpace::Kind::Host);
    const auto result = bench.measure(cfg);
    std::printf("osu_latency on %s (on-socket, 8 B): %s us\n",
                m.info.name.c_str(), result.latencyUs.toString().c_str());
  }

  if (m.accelerated()) {
    const trace::Scope traceScope(m.info.name + "/gpu");
    gpusim::GpuRuntime rt(m);
    const auto stream = rt.defaultStream(0);
    const auto host = rt.allocPinnedHost(ByteCount::mib(64));
    const auto dev = rt.allocDevice(0, ByteCount::mib(64));
    rt.memcpyAsync(stream, dev, host, ByteCount::mib(64));
    rt.launchKernel(stream, Duration::microseconds(25.0));
    rt.memcpyAsync(stream, host, dev, ByteCount::mib(64));
    rt.streamSynchronize(stream);
    std::printf("GPU H2D + kernel + D2H on %s: %.3f us\n",
                m.info.name.c_str(), rt.hostNow().us());
  }

  {
    const trace::Scope traceScope(m.info.name + "/internode");
    netsim::InterNodeConfig ncfg;
    ncfg.binaryRuns = 25;
    mpisim::InterNodeParams network = netsim::networkFor(m);
    network.packetLossRate = 0.02;  // force visible loss/retransmit events
    ncfg.network = network;
    ncfg.watchdog = Duration::seconds(10.0);
    const auto inter = netsim::measureInterNode(m, ncfg);
    std::printf(
        "Inter-node ping-pong on %s (8 B, 2%% forced loss): %s us, "
        "%llu retransmit(s)\n",
        m.info.name.c_str(), inter.latencyUs.toString().c_str(),
        static_cast<unsigned long long>(inter.retransmits));
  }

  writeTraceFile(outPath, session);
  std::cout << "wrote " << outPath
            << " (open in Perfetto: https://ui.perfetto.dev)\n";
  std::cout << trace::metricsSummary(session);
  return 0;
}

/// `nodebench compare` / `nodebench gate`: statistical regression
/// detection between two results stores (see stats/compare.hpp). The
/// gate variant prints a terse line per regression and exits with
/// stats::kGateRegressionExitCode when any cell shows a statistically
/// significant, material regression — CI-pipeline-friendly.
int compareStores(const Parsed& args, bool gate) {
  stats::CompareOptions copt;
  args.read("--jobs", copt.jobs);
  args.read("--threshold", copt.thresholdPct);
  if (args.read("--alpha", copt.alpha) && copt.alpha >= 1.0) {
    throw Error("--alpha expects a significance level in (0, 1)");
  }
  const stats::StoreContents baseline =
      stats::ResultStore::load(args.positionals[0]);
  const stats::StoreContents candidate =
      stats::ResultStore::load(args.positionals[1]);
  const stats::CompareReport report =
      stats::compareStores(baseline, candidate, copt);
  if (gate) {
    std::cout << stats::renderGate(report);
    return stats::gateExit(report);
  }
  std::cout << stats::renderCompare(report);
  return 0;
}

int cmdCompare(const Parsed& args) { return compareStores(args, false); }

int cmdGate(const Parsed& args) { return compareStores(args, true); }

/// Reads a supervisor journal and returns its quarantine record (shard,
/// attempts, last incident per poisoned shard) so a hand-driven
/// `merge --allow-partial` names *why* each shard is missing, exactly as
/// the supervisor's own degrade path does.
std::vector<campaign::ShardGap> quarantineFromSupervisorJournal(
    const std::string& path) {
  const auto decoded = supervise::SupervisorJournal::load(path);
  std::map<std::uint32_t, campaign::ShardGap> gaps;
  for (const supervise::SupervisorEvent& event : decoded.events) {
    if (event.kind == supervise::EventKind::ShardPoisoned) {
      campaign::ShardGap gap;
      gap.shard = event.shard;
      gap.attempts = event.attempt;
      gap.lastIncident = event.detail;
      gaps[event.shard] = std::move(gap);
    }
  }
  std::vector<campaign::ShardGap> out;
  out.reserve(gaps.size());
  for (auto& [shard, gap] : gaps) {
    out.push_back(std::move(gap));
  }
  return out;
}

/// `nodebench merge`: validate a complete shard set and rebuild the
/// single-process artifact (see campaign/shard.hpp for the refusal
/// contract).
int cmdMerge(const Parsed& args) {
  stats::MergeOutputs out;
  args.read("--out", out.journal);
  args.read("--store-out", out.store);
  args.read("--gap-out", out.gaps);
  out.refuseExisting();
  campaign::MergeOptions mopt;
  mopt.allowPartial = args.has("--allow-partial");
  if (args.has("--supervisor-journal")) {
    mopt.quarantined =
        quarantineFromSupervisorJournal(args.text("--supervisor-journal"));
  }
  std::vector<std::string> stores;
  args.read("--stores", stores);
  return stats::writeMerge(args.positionals, stores, out, mopt);
}

/// What the two drivers, `shard` and `supervise`, set alike: the
/// campaign, its merge outputs, and the interrupt token the launcher
/// drains on (SIGTERM to the workers, exit 43, journals intact for
/// --resume).
supervise::SuperviseOptions driverOptions(const Parsed& args) {
  supervise::SuperviseOptions sopt;
  sopt.campaign = CampaignSpec::parse(args);
  sopt.campaign.selector = args.positionals[0];
  args.read("--merge-out", sopt.merge.journal);
  args.read("--merge-store-out", sopt.merge.store);
  args.read("--gap-out", sopt.merge.gaps);
  installInterruptHandlers();
  sopt.stopFlag = &interruptToken();
  return sopt;
}

/// `nodebench shard`: the launcher (see supervise/supervisor.hpp) with
/// one attempt per shard and no supervisor journal. A failed shard
/// becomes a gap (exit 44); --resume relaunches every shard, and the
/// finished ones replay their journals.
int cmdShard(const Parsed& args) {
  supervise::SuperviseOptions sopt = driverOptions(args);
  sopt.maxAttempts = 1;
  return supervise::runSupervise(sopt);
}

/// `nodebench supervise`: the launcher with retries, backoff and a
/// supervisor journal (see supervise/supervisor.hpp for the protocol).
int cmdSupervise(const Parsed& args) {
  supervise::SuperviseOptions sopt = driverOptions(args);
  sopt.supervisorJournalPath = sopt.campaign.journal + ".supervisor";
  args.read("--workers", sopt.workers);
  args.read("--supervisor-journal", sopt.supervisorJournalPath);
  args.read("--max-attempts", sopt.maxAttempts);
  args.read("--backoff-base-ms", sopt.backoff.baseMs);
  args.read("--backoff-cap-ms", sopt.backoff.capMs);
  args.read("--heartbeat-timeout-ms", sopt.heartbeatTimeoutMs);
  args.read("--attempt-timeout-ms", sopt.attemptTimeoutMs);
  return supervise::runSupervise(sopt);
}

/// `nodebench serve`: the crash-tolerant measurement daemon (see
/// serve/server.hpp for the architecture and robustness contract).
int cmdServe(const Parsed& args) {
  serve::ServerOptions sopt;
  args.read("--socket", sopt.socketPath);
  args.read("--port", sopt.port);
  args.read("--state-dir", sopt.stateDir);
  args.read("--queue-depth", sopt.limits.maxQueueDepth);
  args.read("--tenant-queue", sopt.limits.maxQueuedPerTenant);
  args.read("--tenant-inflight", sopt.limits.maxInflightPerTenant);
  args.read("--executors", sopt.executorThreads);
  args.read("--io-threads", sopt.ioThreads);
  args.read("--memo-max-entries", sopt.memoMaxEntries);
  sopt.resume = args.has("--resume");
  sopt.allowDebugHooks = args.has("--test-hooks");

  // Handlers first: start() makes the daemon reachable, and a SIGTERM
  // that arrives before the handlers are in place would kill it instead
  // of draining it. The main thread polls the token and runs the actual
  // (not async-signal-safe) drain sequence.
  installInterruptHandlers();
  const std::string socketPath = sopt.socketPath;
  serve::Server server(std::move(sopt));
  server.start();
  if (!socketPath.empty()) {
    std::cout << "nodebench serve: listening on unix:" << socketPath
              << std::endl;
  } else {
    std::cout << "nodebench serve: listening on 127.0.0.1:"
              << server.boundPort() << std::endl;
  }

  while (!interruptToken().requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cerr << "nodebench serve: drain requested; finishing in-flight "
               "work\n";
  server.requestDrain();
  server.waitUntilStopped();
  std::cerr << "nodebench serve: drained\n";
  return 0;
}

int cmdNative(const Parsed& args) {
  int threads = 0;
  args.read("--threads", threads);
  native::NativeStreamBackend backend(threads);
  babelstream::DriverConfig cfg;
  cfg.arrayBytes = ByteCount::mib(64);
  cfg.binaryRuns = 5;  // real runs are slow; this is a demo measurement
  std::cout << "Native BabelStream on this host (" << backend.name()
            << "):\n";
  printStream(babelstream::run(backend, cfg));

  native::NativePingPongConfig pcfg;
  pcfg.cores = {{0, 1}};
  const Duration lat = native::nativePingPongOneWay(pcfg);
  std::printf("Native shared-memory ping-pong (cores 0,1, 8 B): %.3f us\n",
              lat.us());
  return 0;
}

/// One command's flag rows, joined from the groups it takes.
std::vector<Flag> rows(std::initializer_list<std::vector<Flag>> groups) {
  std::vector<Flag> out;
  for (const std::vector<Flag>& group : groups) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

}  // namespace

std::span<const flags::Command> commands() {
  static const std::vector<flags::Command> table = [] {
    const std::vector<Flag> trace = {{"--trace", Kind::Text}, {"--metrics"}};
    const std::vector<Flag> compare = {{"--jobs", Kind::PositiveInt},
                                       {"--threshold", Kind::PositiveReal},
                                       {"--alpha", Kind::PositiveReal}};
    // The drivers' merge outputs, with the rules both drivers share.
    const std::vector<Flag> mergeOut = {
        {"--merge-out", Kind::Text},
        {"--merge-store-out", Kind::Text,
         {{"--store", "--merge-store-out requires --store BASE (the "
                      "workers must write shard stores to merge)"},
          {"--merge-out", "--merge-store-out requires --merge-out FILE"}}}};
    // Each row: name, body, flags, the fewest and most positionals, the
    // noun a missing positional is refused with (none: usage), whether
    // one too many means usage, and the flags the command cannot run
    // without. `table` and `export` refuse extra positionals themselves,
    // each with its own message.
    return std::vector<flags::Command>{
        {"list", cmdList},
        {"topo", cmdTopo, {{"--dot"}}, 1, 1, "a machine name"},
        {"table", cmdTable,
         rows({CampaignSpec::runFlags(), CampaignSpec::fileFlags(),
               CampaignSpec::singleRunFlags(), CampaignSpec::workerFlags(),
               trace}),
         1, SIZE_MAX},
        {"stream", cmdStream,
         rows({{{"--device", Kind::NonNegativeInt}}, trace}), 1, 1,
         "a machine name"},
        {"latency", cmdLatency,
         rows({{{"--pair", Kind::Text}, {"--size", Kind::ByteCount}}, trace}),
         1, 1, "a machine name"},
        {"commscope", cmdCommScope, trace, 1, 1, "a machine name"},
        {"trace", cmdTrace, {{"--out", Kind::Text}}, 0, 1},
        {"card", cmdCard, {{"--json"}}, 1, 1},
        {"diff", cmdDiff, {}, 2, 2},
        {"balance", cmdBalance},
        {"export", cmdExport,
         rows({CampaignSpec::runFlags(), CampaignSpec::fileFlags(),
               CampaignSpec::singleRunFlags(), {{"--dir", Kind::Text}},
               trace}),
         0, SIZE_MAX},
        {"faults", cmdFaults, rows({CampaignSpec::runFlags(), trace}), 1, 1},
        {"native", cmdNative, {{"--threads", Kind::PositiveInt}}},
        {"compare", cmdCompare, compare, 2, 2, {}, true},
        {"gate", cmdGate, compare, 2, 2, {}, true},
        {"shard", cmdShard,
         rows({CampaignSpec::runFlags(), CampaignSpec::fileFlags(),
               CampaignSpec::driverFlags(), mergeOut}),
         1, 1, {}, true,
         {{"--shards", "shard requires --shards N (the worker-process "
                       "count)"},
          {"--journal", "shard requires --journal BASE (worker journals "
                        "land at BASE.shard<i>of<N>)"}}},
        {"merge", cmdMerge,
         {{"--out", Kind::Text},
          {"--store-out", Kind::Text,
           {{"--stores", "--store-out requires the shard stores (--stores "
                         "FILE, once per shard)"}}},
          {"--stores", Kind::RepeatedText,
           {{"--store-out", "--stores requires --store-out FILE (the merged "
                            "store path)"}}},
          {"--allow-partial"},
          {"--gap-out", Kind::Text,
           {{"--allow-partial", "--gap-out requires --allow-partial (a "
                                "strict merge can have no gaps)"}}},
          {"--supervisor-journal", Kind::Text,
           {{"--allow-partial", "--supervisor-journal requires "
                                "--allow-partial (the quarantine record "
                                "only annotates gaps)"}}}},
         1, SIZE_MAX, {}, false,
         {{"--out", "merge requires --out FILE (the merged journal path)"}}},
        {"supervise", cmdSupervise,
         rows({CampaignSpec::runFlags(), CampaignSpec::fileFlags(),
               CampaignSpec::driverFlags(), CampaignSpec::supervisorFlags(),
               mergeOut,
               {{"--workers", Kind::PositiveInt},
                {"--supervisor-journal", Kind::Text},
                {"--max-attempts", Kind::PositiveInt},
                {"--backoff-base-ms", Kind::PositiveInt},
                {"--backoff-cap-ms", Kind::PositiveInt},
                {"--heartbeat-timeout-ms", Kind::PositiveInt},
                {"--attempt-timeout-ms", Kind::PositiveInt},
                {"--gap-out", Kind::Text}}}),
         1, 1, {}, true,
         {{"--shards", "supervise requires --shards N (the shard count)"},
          {"--journal", "supervise requires --journal BASE (worker "
                        "journals land at BASE.shard<i>of<N>)"}}},
        {"serve", cmdServe,
         {{"--socket", Kind::Text},
          {"--port", Kind::Port},
          {"--state-dir", Kind::Text},
          {"--queue-depth", Kind::PositiveInt},
          {"--tenant-queue", Kind::PositiveInt},
          {"--tenant-inflight", Kind::PositiveInt},
          {"--executors", Kind::PositiveInt},
          {"--io-threads", Kind::PositiveInt},
          {"--memo-max-entries", Kind::PositiveInt},
          {"--resume"},
          {"--test-hooks", Kind::Switch, {}, true}},
         0, 0, {}, true},
    };
  }();
  return table;
}

int run(int argc, char** argv) {
  try {
    if (argc < 2) {
      return usage();
    }
    std::string name = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (name == "sweep" || name == "chase") {
      // Aliases for `table sweep` / `table chase`: the memlab families
      // share the table harness (and thus every campaign flag).
      args.insert(args.begin(), name);
      name = "table";
    }
    for (const flags::Command& command : commands()) {
      if (command.name == name) {
        const Parsed parsed = flags::parse(command, args);
        // On the commands that take `--trace FILE` / `--metrics`, one
        // session records the whole body and is exported once it returned.
        // Without either flag there is no session, so untraced runs stay
        // byte-identical to the pre-trace harness.
        const std::string tracePath = parsed.text("--trace");
        std::optional<trace::Session> session;
        if (!tracePath.empty() || parsed.has("--metrics")) {
          session.emplace();
        }
        const int code = command.run(parsed);
        if (!tracePath.empty()) {
          writeTraceFile(tracePath, *session);
          std::cout << "wrote " << tracePath << "\n";
        }
        if (parsed.has("--metrics")) {
          std::cout << trace::metricsSummary(*session);
        }
        return code;
      }
    }
    return usage();
  } catch (const flags::UsageError&) {
    return usage();
  } catch (const CancelledError& e) {
    std::cerr << "nodebench: " << e.what()
              << "; the journal is intact — rerun with --resume to finish\n";
    return kInterruptedExitCode;
  } catch (const std::exception& e) {
    std::cerr << "nodebench: error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace nodebench::cli
