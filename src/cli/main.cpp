/// \file main.cpp
/// \brief `nodebench` command-line tool.
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

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "babelstream/driver.hpp"
#include "babelstream/sim_device_backend.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "campaign/io.hpp"
#include "campaign/journal.hpp"
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
#include "report/export.hpp"
#include "report/figures.hpp"
#include "report/reports.hpp"
#include "report/tables.hpp"
#include "serve/server.hpp"
#include "stats/compare.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "supervise/heartbeat.hpp"
#include "supervise/journal.hpp"
#include "supervise/supervisor.hpp"
#include "topo/dot.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace {

using namespace nodebench;

int usage() {
  std::cout <<
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
      "          BASE.shard<i>of<N>; exits 43 when a worker was\n"
      "          interrupted (rerun with --resume to finish)\n"
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
      "          [--merge-store-out F] [--gap-out F]  fault-tolerant\n"
      "          lease-based campaign coordinator: workers pull shard\n"
      "          leases, heartbeat, and journal; dead/wedged workers are\n"
      "          reassigned with deterministic backoff and resume from\n"
      "          their crash-safe journals; after K failures a shard is\n"
      "          quarantined and the merge degrades to --allow-partial\n"
      "          (exit 44, gap manifest); the supervisor itself survives\n"
      "          SIGKILL via its own journal + --resume\n"
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
  return 2;
}

std::optional<std::string> flagValue(std::vector<std::string>& args,
                                     const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

/// Validated "--flag N" with N a positive integer; throws Error (caught
/// by main's top-level handler, exit code 1) on anything else, rather
/// than letting stoi's silent acceptance of "0" or "8x" configure a
/// nonsense harness.
std::optional<int> positiveFlagValue(std::vector<std::string>& args,
                                     const std::string& flag) {
  const auto raw = flagValue(args, flag);
  if (!raw) {
    // flagValue never matches a trailing flag (it needs a value after
    // it); don't let a dangling "--runs" be silently ignored.
    if (std::find(args.begin(), args.end(), flag) != args.end()) {
      throw Error(flag + " expects a value");
    }
    return std::nullopt;
  }
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(*raw, &used);
  } catch (const std::exception&) {
    throw Error(flag + " expects a positive integer, got '" + *raw + "'");
  }
  if (used != raw->size() || value < 1) {
    throw Error(flag + " expects a positive integer, got '" + *raw + "'");
  }
  return value;
}

/// Validated "--flag N" with N a non-negative integer — for flags where
/// 0 is meaningful (a shard index); same error discipline as
/// positiveFlagValue.
std::optional<int> nonNegativeFlagValue(std::vector<std::string>& args,
                                        const std::string& flag) {
  const auto raw = flagValue(args, flag);
  if (!raw) {
    if (std::find(args.begin(), args.end(), flag) != args.end()) {
      throw Error(flag + " expects a value");
    }
    return std::nullopt;
  }
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(*raw, &used);
  } catch (const std::exception&) {
    throw Error(flag + " expects a non-negative integer, got '" + *raw +
                "'");
  }
  if (used != raw->size() || value < 0) {
    throw Error(flag + " expects a non-negative integer, got '" + *raw +
                "'");
  }
  return value;
}

/// Validated "--flag B" with B a byte count: any non-negative integer
/// that fits in 64 bits. stoull alone would take "-1" as 2^64-1 and skip
/// leading blanks, so the value must start with a digit; same error
/// discipline as positiveFlagValue.
std::optional<std::uint64_t> byteCountFlagValue(
    std::vector<std::string>& args, const std::string& flag) {
  const auto raw = flagValue(args, flag);
  if (!raw) {
    if (std::find(args.begin(), args.end(), flag) != args.end()) {
      throw Error(flag + " expects a value");
    }
    return std::nullopt;
  }
  const Error refusal(flag + " expects a non-negative integer, got '" +
                      *raw + "'");
  if (raw->empty() || raw->front() < '0' || raw->front() > '9') {
    throw refusal;
  }
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(*raw, &used);
  } catch (const std::exception&) {
    throw refusal;
  }
  if (used != raw->size()) {
    throw refusal;
  }
  return value;
}

/// Validated "--flag X" with X a positive finite number ("2.5", "0.01");
/// same error discipline as positiveFlagValue.
std::optional<double> positiveDoubleFlagValue(std::vector<std::string>& args,
                                              const std::string& flag) {
  const auto raw = flagValue(args, flag);
  if (!raw) {
    if (std::find(args.begin(), args.end(), flag) != args.end()) {
      throw Error(flag + " expects a value");
    }
    return std::nullopt;
  }
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(*raw, &used);
  } catch (const std::exception&) {
    throw Error(flag + " expects a positive number, got '" + *raw + "'");
  }
  if (used != raw->size() || !(value > 0.0) || !std::isfinite(value)) {
    throw Error(flag + " expects a positive number, got '" + *raw + "'");
  }
  return value;
}

bool flagPresent(std::vector<std::string>& args, const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

/// Called after all flag parsing: anything left that looks like a flag is
/// either unknown or a duplicate (each flag parser erases the occurrence
/// it consumed, so a second "--runs 9" survives to here). Silently
/// ignoring it would run a configuration the user did not ask for.
void rejectLeftoverFlags(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      throw Error("unknown or duplicate flag: " + arg);
    }
  }
}

/// For the inspection commands, whose positional arguments are exactly
/// `positionals` machine names; called after all flag parsing. Rejects
/// leftover flags, a missing machine name (the flag parsers may have
/// consumed everything, as in "latency --size 8"), and any positional
/// argument past the first `positionals`.
void rejectLeftoverArgs(const std::string& command,
                        const std::vector<std::string>& args,
                        std::size_t positionals) {
  rejectLeftoverFlags(args);
  if (args.size() < positionals) {
    throw Error(command + ": expected " +
                (positionals == 1 ? std::string("a machine name")
                                  : std::to_string(positionals) +
                                        " machine names"));
  }
  if (args.size() > positionals) {
    throw Error(command + ": unexpected argument '" + args[positionals] +
                "'");
  }
}

/// Process-wide cancellation token for one-shot journaled runs; set from
/// the signal handler (CancelToken::set is async-signal-safe).
CancelToken& interruptToken() {
  static CancelToken token;
  return token;
}

void onInterruptSignal(int /*signo*/) {
  interruptToken().set(CancelReason::Interrupt);
}

/// Installed only for `--journal` runs: without a journal there is
/// nothing to hand to --resume, so the default die-on-signal behaviour
/// is the right one. With one, the harness finishes the in-flight cell,
/// journals it, and the run exits kInterruptedExitCode (43) — distinct
/// from plain failure, so scripts know to rerun with --resume.
void installInterruptHandlers() {
  (void)std::signal(SIGINT, onInterruptSignal);
  (void)std::signal(SIGTERM, onInterruptSignal);
}

/// The campaign-file flags of `table` and `export`: `--journal FILE`,
/// `--resume`, `--crash-after-cell N` (a hidden crash-injection test
/// hook) and `--store FILE`. Parsed before anything is opened, so an
/// argument rejected afterwards leaves no file behind.
struct CampaignFiles {
  std::optional<std::string> journal;
  bool resume = false;
  std::optional<int> crashAfterCell;
  std::optional<std::string> store;
};

CampaignFiles campaignFiles(std::vector<std::string>& args) {
  CampaignFiles files;
  files.journal = flagValue(args, "--journal");
  files.resume = flagPresent(args, "--resume");
  files.crashAfterCell = positiveFlagValue(args, "--crash-after-cell");
  if (!files.journal) {
    if (std::find(args.begin(), args.end(), "--journal") != args.end()) {
      throw Error("--journal expects a value");
    }
    if (files.resume) {
      throw Error("--resume requires --journal FILE");
    }
    if (files.crashAfterCell) {
      throw Error("--crash-after-cell requires --journal FILE");
    }
  }
  files.store = flagValue(args, "--store");
  if (!files.store &&
      std::find(args.begin(), args.end(), "--store") != args.end()) {
    throw Error("--store expects a value");
  }
  return files;
}

/// The journal and results store one run opened; null when not asked for.
struct OpenCampaign {
  std::unique_ptr<campaign::Journal> journal;
  std::unique_ptr<stats::ResultStore> store;
};

/// Opens the campaign journal and results store and wires them into
/// `opt`; a journaled run also stops cleanly on SIGINT/SIGTERM. Must run
/// after every other option lands in `opt`, because both headers
/// fingerprint the final configuration. A resumed campaign reattaches
/// its store, after validating the fingerprint, instead of refusing to
/// overwrite it. All journal and store chatter goes to stderr so stdout
/// stays byte-identical to a run without them.
OpenCampaign openCampaign(const CampaignFiles& files,
                          report::TableOptions& opt) {
  if (opt.shard != nullptr && !files.journal) {
    throw Error("--shard requires --journal FILE (the shard journal is "
                "what `nodebench merge` consumes)");
  }
  const campaign::CampaignConfig cfg = report::campaignConfig(opt);
  OpenCampaign opened;
  if (files.journal) {
    if (files.resume) {
      opened.journal = campaign::Journal::resume(*files.journal, cfg);
      for (const std::string& warning : opened.journal->warnings()) {
        std::cerr << "nodebench: warning: " << warning << "\n";
      }
      std::cerr << "nodebench: resuming campaign from " << *files.journal
                << " (" << opened.journal->cellRecordCount()
                << " cell(s) already measured)\n";
    } else {
      opened.journal = campaign::Journal::create(*files.journal, cfg);
    }
    if (files.crashAfterCell) {
      opened.journal->setCrashAfterAppends(*files.crashAfterCell);
    }
    opt.journal = opened.journal.get();
  }
  if (files.store) {
    opened.store = stats::ResultStore::attach(*files.store, cfg, files.resume);
    if (files.resume && opened.store->recordCount() > 0) {
      std::cerr << "nodebench: reattaching results store " << *files.store
                << " (" << opened.store->recordCount()
                << " record(s) already stored)\n";
    }
    opt.store = opened.store.get();
  }
  if (opened.journal) {
    installInterruptHandlers();
    opt.cancel = &interruptToken();
  }
  return opened;
}

/// Parses `--shard i/N` and builds the shard plan. Must run *before*
/// openCampaign (the journal header fingerprints the shard spec), which
/// refuses a shard run without --journal: an unjournalled shard run
/// would produce nothing `nodebench merge` could consume, which is never
/// what the user meant.
std::unique_ptr<campaign::ShardPlan> openShardPlan(
    std::vector<std::string>& args, report::TableOptions& opt) {
  const auto spec = flagValue(args, "--shard");
  if (!spec) {
    if (std::find(args.begin(), args.end(), "--shard") != args.end()) {
      throw Error("--shard expects a value (i/N)");
    }
    return nullptr;
  }
  auto plan =
      std::make_unique<campaign::ShardPlan>(campaign::parseShardSpec(*spec));
  opt.shard = plan.get();
  return plan;
}

/// Parsed `--trace FILE` / `--metrics` flags plus the live trace session
/// they open. The session is heap-held (Session is pinned: it registers
/// itself in a process-wide slot) and null when neither flag is given, so
/// untraced runs stay byte-identical to the pre-trace harness.
struct TraceRequest {
  std::string outPath;  ///< Chrome JSON destination; empty = none.
  bool metrics = false;
  std::unique_ptr<trace::Session> session;
};

TraceRequest traceRequest(std::vector<std::string>& args) {
  TraceRequest req;
  if (const auto out = flagValue(args, "--trace")) {
    req.outPath = *out;
  }
  req.metrics = flagPresent(args, "--metrics");
  if (!req.outPath.empty() || req.metrics) {
    req.session = std::make_unique<trace::Session>();
  }
  return req;
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

/// Exports the session once every recording scope has closed: writes the
/// Chrome trace file (if requested) and prints the metrics appendix (if
/// requested). No-op without a session.
void finishTrace(const TraceRequest& req) {
  if (!req.session) {
    return;
  }
  if (!req.outPath.empty()) {
    writeTraceFile(req.outPath, *req.session);
    std::cout << "wrote " << req.outPath << "\n";
  }
  if (req.metrics) {
    std::cout << trace::metricsSummary(*req.session);
  }
}

int cmdList(const std::vector<std::string>& args) {
  rejectLeftoverArgs("list", args, 0);
  std::cout << report::buildTable2().renderAscii() << '\n'
            << report::buildTable3().renderAscii();
  return 0;
}

int cmdTopo(std::vector<std::string> args) {
  if (args.empty()) {
    return usage();
  }
  const bool dot = flagPresent(args, "--dot");
  rejectLeftoverArgs("topo", args, 1);
  const machines::Machine& m = machines::byName(args[0]);
  if (dot) {
    std::cout << topo::toDot(m.topology, m.info.name);
  } else {
    std::cout << report::nodeDiagram(m) << '\n'
              << report::linkClassLegend(m);
  }
  return 0;
}

int cmdTable(std::vector<std::string> args) {
  const TraceRequest tr = traceRequest(args);
  report::TableOptions opt;
  std::optional<faults::FaultPlan> plan;
  if (const auto planPath = flagValue(args, "--faults")) {
    plan = faults::FaultPlan::load(*planPath);
    opt.faults = &*plan;
  }
  if (const auto runs = positiveFlagValue(args, "--runs")) {
    opt.binaryRuns = *runs;
  }
  if (const auto jobs = positiveFlagValue(args, "--jobs")) {
    opt.jobs = *jobs;
  }
  // Hidden test hook (like --crash-after-cell): slow every cell so the
  // crash suite can land signals mid-campaign deterministically. Not
  // part of the campaign fingerprint — it changes timing, not results.
  if (const auto delay = positiveFlagValue(args, "--test-cell-delay-ms")) {
    opt.testCellDelayMs = *delay;
  }
  // Supervised-worker liveness: beat a heartbeat file for the campaign's
  // duration (see supervise/heartbeat.hpp). Timing-only — never part of
  // the fingerprint, never visible on stdout.
  const auto heartbeatFile = flagValue(args, "--heartbeat");
  if (!heartbeatFile &&
      std::find(args.begin(), args.end(), "--heartbeat") != args.end()) {
    throw Error("--heartbeat expects a value");
  }
  std::uint32_t heartbeatIntervalMs = 100;
  if (const auto v = positiveFlagValue(args, "--heartbeat-interval-ms")) {
    heartbeatIntervalMs = static_cast<std::uint32_t>(*v);
  }
  // Hidden chaos hooks for the supervise suite: stop heartbeating after
  // N beats (a wedged worker), or fail outright after the journal opens
  // (a poisoned shard).
  const auto stallAfter =
      positiveFlagValue(args, "--test-heartbeat-stall-after");
  if (stallAfter && !heartbeatFile) {
    throw Error("--test-heartbeat-stall-after requires --heartbeat FILE");
  }
  const bool testFailRun = flagPresent(args, "--test-fail-run");
  const std::unique_ptr<campaign::ShardPlan> shardPlan =
      openShardPlan(args, opt);
  const CampaignFiles files = campaignFiles(args);
  rejectLeftoverFlags(args);
  if (args.empty()) {
    return usage();
  }
  if (args.size() > 1) {
    throw Error("table expects exactly one selector (1..9, all, sweep or "
                "chase), got " + std::to_string(args.size()));
  }
  // Resolved before any journal, store or heartbeat file exists, so a bad
  // selector leaves nothing behind.
  const std::span<const report::Report> reports =
      report::selectReports(args[0]);
  const OpenCampaign opened = openCampaign(files, opt);
  std::unique_ptr<supervise::HeartbeatWriter> heartbeat;
  if (heartbeatFile) {
    heartbeat = std::make_unique<supervise::HeartbeatWriter>(
        *heartbeatFile, heartbeatIntervalMs,
        stallAfter ? static_cast<std::uint64_t>(*stallAfter) : 0);
  }
  if (testFailRun) {
    // Fires after the journal/store exist, so the supervisor's retry has
    // real artifacts to resume — exactly what a mid-campaign crash
    // leaves behind.
    throw Error("test failure injected by --test-fail-run");
  }
  report::ReportRun run(opt);
  for (const report::Report& r : reports) {
    std::cout << r.render(run).ascii() << '\n';
  }
  // Fault-free runs collect no incidents, so stdout stays byte-identical
  // to the pre-resilience harness.
  const std::string diagnostics = report::renderDiagnostics(run.incidents());
  if (!diagnostics.empty()) {
    std::cout << diagnostics;
  }
  finishTrace(tr);
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

int cmdStream(std::vector<std::string> args) {
  const TraceRequest tr = traceRequest(args);
  if (args.empty()) {
    return usage();
  }
  const std::optional<int> device = nonNegativeFlagValue(args, "--device");
  rejectLeftoverArgs("stream", args, 1);
  const machines::Machine& m = machines::byName(args[0]);
  const int devices = m.topology.gpuCount();
  if (device && *device >= devices) {
    throw Error("--device " + std::to_string(*device) +
                " is out of range: " + m.info.name + " has " +
                std::to_string(devices) + " devices");
  }
  babelstream::DriverConfig cfg;
  {
    const trace::Scope traceScope(m.info.name + "/babelstream");
    if (m.accelerated()) {
      cfg.arrayBytes = ByteCount::gib(1);
      babelstream::SimDeviceBackend backend(m, device.value_or(0));
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
  finishTrace(tr);
  return 0;
}

int cmdLatency(std::vector<std::string> args) {
  const TraceRequest tr = traceRequest(args);
  if (args.empty()) {
    return usage();
  }
  std::string pair = "on-socket";
  if (const auto p = flagValue(args, "--pair")) {
    pair = *p;
  }
  osu::LatencyConfig cfg;
  if (const auto s = byteCountFlagValue(args, "--size")) {
    cfg.messageSize = ByteCount::bytes(*s);
  }
  rejectLeftoverArgs("latency", args, 1);
  const machines::Machine& m = machines::byName(args[0]);

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
  finishTrace(tr);
  return 0;
}

int cmdCommScope(std::vector<std::string> args) {
  const TraceRequest tr = traceRequest(args);
  if (args.empty()) {
    return usage();
  }
  rejectLeftoverArgs("commscope", args, 1);
  const machines::Machine& m = machines::byName(args[0]);
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
  finishTrace(tr);
  return 0;
}

int cmdDiff(std::vector<std::string> args) {
  if (args.size() < 2) {
    return usage();
  }
  rejectLeftoverArgs("diff", args, 2);
  const machines::Machine& a = machines::byName(args[0]);
  const machines::Machine& b = machines::byName(args[1]);

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

int cmdCard(std::vector<std::string> args) {
  const bool json = flagPresent(args, "--json");
  if (args.empty()) {
    return usage();
  }
  rejectLeftoverArgs("card", args, 1);
  const machines::Machine& m = machines::byName(args[0]);
  std::cout << (json ? machines::machineJson(m) : machines::machineCard(m));
  return 0;
}

int cmdBalance(const std::vector<std::string>& args) {
  rejectLeftoverArgs("balance", args, 0);
  std::cout << report::renderBalance(report::computeBalance()).renderAscii();
  return 0;
}

int cmdExport(std::vector<std::string> args) {
  const TraceRequest tr = traceRequest(args);
  report::TableOptions opt;
  std::optional<faults::FaultPlan> plan;
  if (const auto planPath = flagValue(args, "--faults")) {
    plan = faults::FaultPlan::load(*planPath);
    opt.faults = &*plan;
  }
  if (const auto runs = positiveFlagValue(args, "--runs")) {
    opt.binaryRuns = *runs;
  }
  if (const auto jobs = positiveFlagValue(args, "--jobs")) {
    opt.jobs = *jobs;
  }
  std::string dir = "nodebench-export";
  if (const auto d = flagValue(args, "--dir")) {
    dir = *d;
  }
  const std::unique_ptr<campaign::ShardPlan> shardPlan =
      openShardPlan(args, opt);
  const CampaignFiles files = campaignFiles(args);
  rejectLeftoverFlags(args);
  // Like a stray flag, a stray argument (say, a directory given without
  // --dir) would otherwise be ignored and the files written elsewhere.
  if (!args.empty()) {
    throw Error("unexpected argument '" + args[0] +
                "' (export writes to --dir D)");
  }
  const OpenCampaign opened = openCampaign(files, opt);
  const auto manifest = report::exportAllTables(dir, opt);
  for (const auto& path : manifest.written) {
    std::cout << "wrote " << path.string() << "\n";
  }
  finishTrace(tr);
  return 0;
}

/// `nodebench faults <plan.json>`: end-to-end fault-injection demo. Runs
/// the measurement tables under the plan (affected cells degrade to
/// "n/a", recovered ones report their retries in the diagnostics
/// appendix), then an inter-node measurement whose packet-loss /
/// brownout parameters come from the same plan, reporting the
/// retransmit count the transport recovery performed.
int cmdFaults(std::vector<std::string> args) {
  const TraceRequest tr = traceRequest(args);
  report::TableOptions opt;
  opt.binaryRuns = 25;  // demo default; --runs restores full methodology
  if (const auto runs = positiveFlagValue(args, "--runs")) {
    opt.binaryRuns = *runs;
  }
  if (const auto jobs = positiveFlagValue(args, "--jobs")) {
    opt.jobs = *jobs;
  }
  if (args.empty()) {
    return usage();
  }
  const faults::FaultPlan plan = faults::FaultPlan::load(args[0]);
  opt.faults = &plan;
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
  finishTrace(tr);
  return 0;
}

/// `nodebench trace [machine]`: tracing demo. Runs three instrumented
/// legs on one machine — an intra-node osu_latency ping-pong, a GPU
/// launch/copy/sync sequence (accelerated systems), and an inter-node
/// ping-pong with forced 2% packet loss so the trace shows loss/
/// retransmit recovery — then writes the Chrome trace JSON (open in
/// Perfetto: https://ui.perfetto.dev) and prints the metrics summary.
int cmdTrace(std::vector<std::string> args) {
  std::string outPath = "nodebench-trace.json";
  if (const auto out = flagValue(args, "--out")) {
    outPath = *out;
  }
  const machines::Machine& m =
      machines::byName(args.empty() ? "Frontier" : args[0]);
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
int cmdCompare(std::vector<std::string> args, bool gate) {
  stats::CompareOptions copt;
  if (const auto jobs = positiveFlagValue(args, "--jobs")) {
    copt.jobs = *jobs;
  }
  if (const auto threshold = positiveDoubleFlagValue(args, "--threshold")) {
    copt.thresholdPct = *threshold;
  }
  if (const auto alpha = positiveDoubleFlagValue(args, "--alpha")) {
    if (*alpha >= 1.0) {
      throw Error("--alpha expects a significance level in (0, 1)");
    }
    copt.alpha = *alpha;
  }
  rejectLeftoverFlags(args);
  if (args.size() != 2) {
    return usage();
  }
  const stats::StoreContents baseline = stats::ResultStore::load(args[0]);
  const stats::StoreContents candidate = stats::ResultStore::load(args[1]);
  const stats::CompareReport report =
      stats::compareStores(baseline, candidate, copt);
  if (gate) {
    std::cout << stats::renderGate(report);
    return stats::gateExit(report);
  }
  std::cout << stats::renderCompare(report);
  return 0;
}

/// Reads + merges a complete shard journal set (and, optionally, the
/// matching stores) and writes the merged artifacts. Shared by
/// `nodebench merge` and the driver's --merge-out. Outputs are refused
/// when they already exist — a merge is a derived artifact, and silently
/// clobbering a previous one is how stale baselines are born.
int runMerge(const std::vector<std::string>& journalPaths,
             const std::string& outPath,
             const std::vector<std::string>& storePaths,
             const std::optional<std::string>& storeOutPath,
             const campaign::MergeOptions& mopt = {},
             const std::optional<std::string>& gapOutPath = std::nullopt) {
  struct stat st {};
  if (::stat(outPath.c_str(), &st) == 0) {
    throw Error("merge output already exists: " + outPath +
                " (remove it first, or merge to a different path)");
  }
  if (storeOutPath && ::stat(storeOutPath->c_str(), &st) == 0) {
    throw Error("merge output already exists: " + *storeOutPath +
                " (remove it first, or merge to a different path)");
  }
  std::vector<campaign::ShardInput> inputs;
  inputs.reserve(journalPaths.size());
  for (const std::string& path : journalPaths) {
    inputs.push_back(campaign::readShardInput(path));
  }
  const campaign::MergedCampaign merged =
      campaign::mergeShardJournals(inputs, mopt);
  campaign::io::atomicWrite(outPath, merged.journalBytes, "merge");
  std::cout << "merged " << inputs.size() << " shard journal(s) -> "
            << outPath << " ("
            << merged.grid.size() - merged.missingCells.size()
            << " cell record(s))\n";
  if (storeOutPath) {
    std::vector<stats::ShardStoreInput> stores;
    stores.reserve(storePaths.size());
    for (const std::string& path : storePaths) {
      stores.push_back(stats::loadShardStoreInput(path));
    }
    const std::vector<std::uint8_t> bytes =
        stats::mergeShardStores(stores, merged);
    campaign::io::atomicWrite(*storeOutPath, bytes, "merge");
    std::cout << "merged " << stores.size() << " shard store(s) -> "
              << *storeOutPath << "\n";
  }
  if (!merged.partial) {
    return 0;
  }
  // Partial: a smaller table is never silent. The gap manifest names
  // every missing shard and cell, and the exit code is distinct.
  const std::string gapPath =
      gapOutPath ? *gapOutPath : outPath + ".gaps.json";
  const std::string manifest = campaign::renderGapManifest(merged);
  campaign::io::atomicWrite(
      gapPath,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(manifest.data()),
          manifest.size()),
      "gap manifest");
  std::cerr << "nodebench merge: PARTIAL merge: "
            << merged.missingCells.size() << " cell(s) from "
            << merged.missingShards.size()
            << " missing shard(s); gap manifest at " << gapPath << "\n";
  return supervise::kPartialCampaignExitCode;
}

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
int cmdMerge(std::vector<std::string> args) {
  const auto out = flagValue(args, "--out");
  if (!out) {
    if (std::find(args.begin(), args.end(), "--out") != args.end()) {
      throw Error("--out expects a value");
    }
    throw Error("merge requires --out FILE (the merged journal path)");
  }
  const auto storeOut = flagValue(args, "--store-out");
  if (!storeOut &&
      std::find(args.begin(), args.end(), "--store-out") != args.end()) {
    throw Error("--store-out expects a value");
  }
  std::vector<std::string> storePaths;
  while (const auto s = flagValue(args, "--stores")) {
    storePaths.push_back(*s);
  }
  if (std::find(args.begin(), args.end(), "--stores") != args.end()) {
    throw Error("--stores expects a value");
  }
  campaign::MergeOptions mopt;
  mopt.allowPartial = flagPresent(args, "--allow-partial");
  const auto gapOut = flagValue(args, "--gap-out");
  if (!gapOut &&
      std::find(args.begin(), args.end(), "--gap-out") != args.end()) {
    throw Error("--gap-out expects a value");
  }
  const auto supJournal = flagValue(args, "--supervisor-journal");
  if (!supJournal && std::find(args.begin(), args.end(),
                               "--supervisor-journal") != args.end()) {
    throw Error("--supervisor-journal expects a value");
  }
  rejectLeftoverFlags(args);
  if (args.empty()) {
    return usage();
  }
  if (storeOut && storePaths.empty()) {
    throw Error("--store-out requires the shard stores (--stores FILE, "
                "once per shard)");
  }
  if (!storePaths.empty() && !storeOut) {
    throw Error("--stores requires --store-out FILE (the merged store "
                "path)");
  }
  if (gapOut && !mopt.allowPartial) {
    throw Error("--gap-out requires --allow-partial (a strict merge can "
                "have no gaps)");
  }
  if (supJournal && !mopt.allowPartial) {
    throw Error("--supervisor-journal requires --allow-partial (the "
                "quarantine record only annotates gaps)");
  }
  if (supJournal) {
    mopt.quarantined = quarantineFromSupervisorJournal(*supJournal);
  }
  return runMerge(args, *out, storePaths, storeOut, mopt, gapOut);
}

/// `nodebench shard`: the multi-process campaign driver. Forks N worker
/// processes — fork happens before any threads exist in this process —
/// each exec'ing this same binary as `table <which> --shard i/N` with a
/// shard-suffixed journal (and store). Worker stdout is discarded (the
/// deliverable is the shard artifacts); stderr is inherited so journal
/// chatter and errors stay visible.
int cmdShard(std::vector<std::string> args) {
  const auto shards = positiveFlagValue(args, "--shards");
  if (!shards) {
    throw Error("shard requires --shards N (the worker-process count)");
  }
  if (static_cast<std::uint32_t>(*shards) > campaign::kMaxShardCount) {
    throw Error("--shards must be at most " +
                std::to_string(campaign::kMaxShardCount));
  }
  const auto count = static_cast<std::uint32_t>(*shards);
  const auto journalBase = flagValue(args, "--journal");
  if (!journalBase) {
    if (std::find(args.begin(), args.end(), "--journal") != args.end()) {
      throw Error("--journal expects a value");
    }
    throw Error("shard requires --journal BASE (worker journals land at "
                "BASE.shard<i>of<N>)");
  }
  const auto storeBase = flagValue(args, "--store");
  if (!storeBase &&
      std::find(args.begin(), args.end(), "--store") != args.end()) {
    throw Error("--store expects a value");
  }
  const auto runs = positiveFlagValue(args, "--runs");
  const auto jobs = positiveFlagValue(args, "--jobs");
  const auto faults = flagValue(args, "--faults");
  const auto delay = positiveFlagValue(args, "--test-cell-delay-ms");
  const bool resume = flagPresent(args, "--resume");
  const auto mergeOut = flagValue(args, "--merge-out");
  const auto mergeStoreOut = flagValue(args, "--merge-store-out");
  rejectLeftoverFlags(args);
  if (args.size() != 1) {
    return usage();
  }
  const std::string which = args[0];
  // Resolved before any worker forks, so a bad selector creates no shard
  // files.
  (void)report::selectReports(which);
  if (mergeStoreOut && !storeBase) {
    throw Error("--merge-store-out requires --store BASE (the workers "
                "must write shard stores to merge)");
  }
  if (mergeStoreOut && !mergeOut) {
    throw Error("--merge-store-out requires --merge-out FILE");
  }

  std::vector<std::string> journalPaths(count);
  std::vector<std::string> storePaths;
  std::vector<pid_t> pids(count, -1);
  for (std::uint32_t i = 0; i < count; ++i) {
    const campaign::ShardSpec spec{i, count};
    journalPaths[i] = campaign::shardPath(*journalBase, spec);
    if (storeBase) {
      storePaths.push_back(campaign::shardPath(*storeBase, spec));
    }
    std::vector<std::string> workerArgs = {
        "nodebench",          "table", which, "--shard",
        campaign::shardSpecText(spec), "--journal", journalPaths[i]};
    if (storeBase) {
      workerArgs.push_back("--store");
      workerArgs.push_back(storePaths[i]);
    }
    if (runs) {
      workerArgs.push_back("--runs");
      workerArgs.push_back(std::to_string(*runs));
    }
    if (jobs) {
      workerArgs.push_back("--jobs");
      workerArgs.push_back(std::to_string(*jobs));
    }
    if (faults) {
      workerArgs.push_back("--faults");
      workerArgs.push_back(*faults);
    }
    if (delay) {
      workerArgs.push_back("--test-cell-delay-ms");
      workerArgs.push_back(std::to_string(*delay));
    }
    // A worker resumes only when its own journal already exists: on the
    // first --resume after a partial campaign, finished shards replay,
    // never-started shards begin fresh.
    struct stat st {};
    if (resume && ::stat(journalPaths[i].c_str(), &st) == 0) {
      workerArgs.push_back("--resume");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw Error(std::string("fork failed: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Worker: discard stdout (tables are rebuilt by the merge), keep
      // stderr, become `nodebench table ... --shard i/N`.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
      }
      std::vector<char*> argvC;
      argvC.reserve(workerArgs.size() + 1);
      for (std::string& s : workerArgs) {
        argvC.push_back(s.data());
      }
      argvC.push_back(nullptr);
      ::execv("/proc/self/exe", argvC.data());
      std::fprintf(stderr, "nodebench shard: exec failed: %s\n",
                   std::strerror(errno));
      std::_Exit(127);
    }
    pids[i] = pid;
    std::cerr << "nodebench shard: worker " << campaign::shardSpecText(spec)
              << " (pid " << pid << ") -> " << journalPaths[i] << "\n";
  }

  bool interrupted = false;
  bool failed = false;
  for (std::uint32_t i = 0; i < count; ++i) {
    int status = 0;
    if (::waitpid(pids[i], &status, 0) < 0) {
      throw Error(std::string("waitpid failed: ") + std::strerror(errno));
    }
    const std::string name =
        campaign::shardSpecText(campaign::ShardSpec{i, count});
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code == 0) {
        continue;
      }
      if (code == kInterruptedExitCode) {
        std::cerr << "nodebench shard: worker " << name
                  << " was interrupted (its journal is intact)\n";
        interrupted = true;
        continue;
      }
      std::cerr << "nodebench shard: worker " << name
                << " failed with exit code " << code << "\n";
      failed = true;
    } else if (WIFSIGNALED(status)) {
      std::cerr << "nodebench shard: worker " << name << " was killed by "
                << "signal " << WTERMSIG(status)
                << " (rerun with --resume to finish its slice)\n";
      interrupted = true;
    }
  }
  if (failed) {
    throw Error("one or more shard workers failed; see messages above");
  }
  if (interrupted) {
    std::cerr << "nodebench shard: campaign incomplete; rerun the same "
                 "command with --resume to finish, then merge\n";
    return kInterruptedExitCode;
  }
  if (mergeOut) {
    return runMerge(journalPaths, *mergeOut, storePaths, mergeStoreOut);
  }
  {
    std::cout << "sharded campaign complete: " << count
              << " journal(s) at " << *journalBase << ".shard*of" << count
              << "; combine with `nodebench merge`\n";
  }
  return 0;
}

/// Stop flag for `nodebench supervise`: the signal handler only sets
/// it; the supervisor's event loop polls it and drains (SIGTERM to
/// workers, exit 43, journal intact for --resume).
volatile std::sig_atomic_t g_superviseStopFlag = 0;

void onSuperviseSignal(int /*signo*/) { g_superviseStopFlag = 1; }

/// `nodebench supervise`: the fault-tolerant lease-based campaign
/// coordinator (see supervise/supervisor.hpp for the protocol).
int cmdSupervise(std::vector<std::string> args) {
  supervise::SuperviseOptions sopt;
  if (const auto shards = positiveFlagValue(args, "--shards")) {
    sopt.shards = static_cast<std::uint32_t>(*shards);
  } else {
    throw Error("supervise requires --shards N (the shard count)");
  }
  if (const auto workers = positiveFlagValue(args, "--workers")) {
    sopt.workers = static_cast<std::uint32_t>(*workers);
  }
  if (const auto journal = flagValue(args, "--journal")) {
    sopt.journalBase = *journal;
  } else {
    if (std::find(args.begin(), args.end(), "--journal") != args.end()) {
      throw Error("--journal expects a value");
    }
    throw Error("supervise requires --journal BASE (worker journals land "
                "at BASE.shard<i>of<N>)");
  }
  if (const auto store = flagValue(args, "--store")) {
    sopt.storeBase = *store;
  } else if (std::find(args.begin(), args.end(), "--store") != args.end()) {
    throw Error("--store expects a value");
  }
  if (const auto path = flagValue(args, "--supervisor-journal")) {
    sopt.supervisorJournalPath = *path;
  } else if (std::find(args.begin(), args.end(), "--supervisor-journal") !=
             args.end()) {
    throw Error("--supervisor-journal expects a value");
  }
  if (const auto runs = positiveFlagValue(args, "--runs")) {
    sopt.runs = static_cast<std::uint32_t>(*runs);
  }
  if (const auto jobs = positiveFlagValue(args, "--jobs")) {
    sopt.jobs = static_cast<std::uint32_t>(*jobs);
  }
  if (const auto faults = flagValue(args, "--faults")) {
    sopt.faultsPath = *faults;
  } else if (std::find(args.begin(), args.end(), "--faults") != args.end()) {
    throw Error("--faults expects a value");
  }
  if (const auto v = positiveFlagValue(args, "--max-attempts")) {
    sopt.maxAttempts = static_cast<std::uint32_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--backoff-base-ms")) {
    sopt.backoff.baseMs = static_cast<std::uint32_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--backoff-cap-ms")) {
    sopt.backoff.capMs = static_cast<std::uint32_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--heartbeat-interval-ms")) {
    sopt.heartbeatIntervalMs = static_cast<std::uint32_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--heartbeat-timeout-ms")) {
    sopt.heartbeatTimeoutMs = static_cast<std::uint32_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--attempt-timeout-ms")) {
    sopt.attemptTimeoutMs = static_cast<std::uint32_t>(*v);
  }
  sopt.resume = flagPresent(args, "--resume");
  if (const auto out = flagValue(args, "--merge-out")) {
    sopt.mergeOut = *out;
  } else if (std::find(args.begin(), args.end(), "--merge-out") !=
             args.end()) {
    throw Error("--merge-out expects a value");
  }
  if (const auto out = flagValue(args, "--merge-store-out")) {
    sopt.mergeStoreOut = *out;
  } else if (std::find(args.begin(), args.end(), "--merge-store-out") !=
             args.end()) {
    throw Error("--merge-store-out expects a value");
  }
  if (const auto out = flagValue(args, "--gap-out")) {
    sopt.gapOut = *out;
  } else if (std::find(args.begin(), args.end(), "--gap-out") !=
             args.end()) {
    throw Error("--gap-out expects a value");
  }
  if (const auto v = positiveFlagValue(args, "--test-cell-delay-ms")) {
    sopt.testCellDelayMs = static_cast<std::uint32_t>(*v);
  }
  // Hidden chaos hooks (see SuperviseOptions): deterministically poison
  // or stall one shard so the suite can prove quarantine + reassignment.
  if (const auto v = nonNegativeFlagValue(args, "--test-poison-shard")) {
    sopt.testPoisonShard = *v;
  }
  if (const auto v = nonNegativeFlagValue(args, "--test-stall-shard")) {
    sopt.testStallShard = *v;
  }
  rejectLeftoverFlags(args);
  if (args.size() != 1) {
    return usage();
  }
  sopt.table = args[0];

  g_superviseStopFlag = 0;
  sopt.stopFlag = &g_superviseStopFlag;
  (void)std::signal(SIGINT, onSuperviseSignal);
  (void)std::signal(SIGTERM, onSuperviseSignal);
  const supervise::SuperviseResult result = supervise::runSupervise(sopt);
  if (result.exitCode == kInterruptedExitCode) {
    std::cerr << "nodebench supervise: campaign interrupted; rerun the "
                 "same command with --resume to finish\n";
  }
  return result.exitCode;
}

/// Drain flag for `nodebench serve`: the signal handler only sets it;
/// the main thread polls and runs the actual (not async-signal-safe)
/// drain sequence.
volatile std::sig_atomic_t g_serveDrainFlag = 0;

void onServeSignal(int /*signo*/) { g_serveDrainFlag = 1; }

/// `nodebench serve`: the crash-tolerant measurement daemon (see
/// serve/server.hpp for the architecture and robustness contract).
int cmdServe(std::vector<std::string> args) {
  serve::ServerOptions sopt;
  if (const auto socket = flagValue(args, "--socket")) {
    sopt.socketPath = *socket;
  } else if (std::find(args.begin(), args.end(), "--socket") != args.end()) {
    throw Error("--socket expects a value");
  }
  if (const auto port = flagValue(args, "--port")) {
    // 0 is meaningful (ephemeral port, reported after bind), so this
    // cannot reuse positiveFlagValue.
    std::size_t used = 0;
    int value = -1;
    try {
      value = std::stoi(*port, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != port->size() || value < 0 || value > 65535) {
      throw Error("--port expects a port number 0..65535, got '" + *port +
                  "'");
    }
    sopt.port = value;
  } else if (std::find(args.begin(), args.end(), "--port") != args.end()) {
    throw Error("--port expects a value");
  }
  if (const auto dir = flagValue(args, "--state-dir")) {
    sopt.stateDir = *dir;
  } else if (std::find(args.begin(), args.end(), "--state-dir") !=
             args.end()) {
    throw Error("--state-dir expects a value");
  }
  if (const auto v = positiveFlagValue(args, "--queue-depth")) {
    sopt.limits.maxQueueDepth = static_cast<std::size_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--tenant-queue")) {
    sopt.limits.maxQueuedPerTenant = static_cast<std::size_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--tenant-inflight")) {
    sopt.limits.maxInflightPerTenant = static_cast<std::size_t>(*v);
  }
  if (const auto v = positiveFlagValue(args, "--executors")) {
    sopt.executorThreads = *v;
  }
  if (const auto v = positiveFlagValue(args, "--io-threads")) {
    sopt.ioThreads = *v;
  }
  if (const auto v = positiveFlagValue(args, "--memo-max-entries")) {
    sopt.memoMaxEntries = static_cast<std::size_t>(*v);
  }
  sopt.resume = flagPresent(args, "--resume");
  sopt.allowDebugHooks = flagPresent(args, "--test-hooks");
  rejectLeftoverFlags(args);
  if (!args.empty()) {
    return usage();
  }

  // Handlers first: start() makes the daemon reachable, and a SIGTERM
  // that arrives before the handlers are in place would kill it instead
  // of draining it.
  g_serveDrainFlag = 0;
  (void)std::signal(SIGINT, onServeSignal);
  (void)std::signal(SIGTERM, onServeSignal);
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

  while (g_serveDrainFlag == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cerr << "nodebench serve: drain requested; finishing in-flight "
               "work\n";
  server.requestDrain();
  server.waitUntilStopped();
  std::cerr << "nodebench serve: drained\n";
  return 0;
}

int cmdNative(std::vector<std::string> args) {
  const std::optional<int> threads = positiveFlagValue(args, "--threads");
  rejectLeftoverArgs("native", args, 0);
  native::NativeStreamBackend backend(threads.value_or(0));
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

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      return usage();
    }
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "list") {
      return cmdList(args);
    }
    if (cmd == "topo") {
      return cmdTopo(std::move(args));
    }
    if (cmd == "table") {
      return cmdTable(std::move(args));
    }
    if (cmd == "sweep" || cmd == "chase") {
      // Aliases for `table sweep` / `table chase`: the memlab families
      // share the table harness (and thus every campaign flag).
      args.insert(args.begin(), cmd);
      return cmdTable(std::move(args));
    }
    if (cmd == "stream") {
      return cmdStream(std::move(args));
    }
    if (cmd == "latency") {
      return cmdLatency(std::move(args));
    }
    if (cmd == "commscope") {
      return cmdCommScope(std::move(args));
    }
    if (cmd == "card") {
      return cmdCard(std::move(args));
    }
    if (cmd == "diff") {
      return cmdDiff(std::move(args));
    }
    if (cmd == "balance") {
      return cmdBalance(args);
    }
    if (cmd == "export") {
      return cmdExport(std::move(args));
    }
    if (cmd == "faults") {
      return cmdFaults(std::move(args));
    }
    if (cmd == "trace") {
      return cmdTrace(std::move(args));
    }
    if (cmd == "native") {
      return cmdNative(std::move(args));
    }
    if (cmd == "compare") {
      return cmdCompare(std::move(args), /*gate=*/false);
    }
    if (cmd == "gate") {
      return cmdCompare(std::move(args), /*gate=*/true);
    }
    if (cmd == "serve") {
      return cmdServe(std::move(args));
    }
    if (cmd == "shard") {
      return cmdShard(std::move(args));
    }
    if (cmd == "merge") {
      return cmdMerge(std::move(args));
    }
    if (cmd == "supervise") {
      return cmdSupervise(std::move(args));
    }
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
