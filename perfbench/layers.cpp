/// perfbench_layers: the traced half of the perfbench benchmark.
///
/// Replays one workload's inputs in-process through nodebench's public
/// module functions and times each call with wall-clock spans recorded
/// here, in the benchmark, never inside the program. Prints one JSON
/// object of per-layer metrics on stdout; `run.py` merges it with what
/// only the spawned program can show (process start, /healthz).
///
///   perfbench_layers env
///   perfbench_layers cells JOURNAL...
///   perfbench_layers paper-tables|durable-campaign|traced-campaign
///       --work DIR --seconds S [--render-out FILE]
///       [--journal J --store S --shard-journals A B --shard-stores A B]
///   perfbench_layers serve-open-loop --work DIR --bodies FILE
///       --replies FILE --state-dir D
///
/// Every replayed op runs twice per round: once bare (only the op's total
/// time is taken) and once with a span around each layer call. The
/// difference is the tracing overhead; the part of the traced op no span
/// covers is reported as the uncovered share.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "machines/registry.hpp"
#include "mpisim/analytic.hpp"
#include "mpisim/world.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/memlab_report.hpp"
#include "report/tables.hpp"
#include "serve/request.hpp"
#include "serve/state.hpp"
#include "sim/vt_scheduler.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace fs = std::filesystem;
using namespace nodebench;
using Clock = std::chrono::steady_clock;

namespace {

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Wall-clock spans of one replayed op, summed per layer name. With
/// `enabled == false` the calls run bare, which is the untraced baseline.
struct Spans {
  bool enabled = true;
  std::map<std::string, double> ms;

  template <typename F>
  decltype(auto) operator()(const std::string& name, F&& f) {
    if (!enabled) {
      return f();
    }
    const auto start = Clock::now();
    struct Record {
      Spans& s;
      const std::string& name;
      Clock::time_point start;
      ~Record() { s.ms[name] += msSince(start); }
    } record{*this, name, start};
    return f();
  }
};

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot read " + path);
  }
  return {std::istreambuf_iterator<char>(in), {}};
}

void removeFiles(const std::vector<std::string>& paths) {
  for (const std::string& p : paths) {
    std::error_code ec;
    fs::remove(p, ec);
  }
}

/// What one op of a table workload prints, built exactly as `nodebench
/// table` builds its stdout, so run.py can compare it with the CLI's.
class TableOps {
 public:
  TableOps(Spans& spans, report::TableOptions opt)
      : spans_(spans), opt_(opt) {}

  std::string all() {
    std::string out;
    std::vector<report::CellIncident> inc;
    const auto render = [&](auto&& f) {
      out += spans_("report.render_ms", f);
      out += '\n';
    };
    render([] { return report::buildTable1().renderAscii(); });
    render([] { return report::buildTable2().renderAscii(); });
    render([] { return report::buildTable3().renderAscii(); });
    out += table(4, inc);
    out += table(5, inc);
    out += table(6, inc);
    out += table(7, inc);
    render([] { return report::buildTable8().renderAscii(); });
    render([] { return report::buildTable9().renderAscii(); });
    return out + report::renderDiagnostics(inc);
  }

  std::string table(int n, std::vector<report::CellIncident>& inc) {
    const std::string key = "report.compute_ms.t" + std::to_string(n);
    std::string text;
    switch (n) {
      case 4: {
        const auto rows =
            spans_(key, [&] { return report::computeTable4(opt_, &inc); });
        text = spans_("report.render_ms", [&] {
          return report::renderTable4(rows, &inc).renderAscii();
        });
        break;
      }
      case 5: {
        const auto rows =
            spans_(key, [&] { return report::computeTable5(opt_, &inc); });
        text = spans_("report.render_ms", [&] {
          return report::renderTable5(rows, &inc).renderAscii();
        });
        break;
      }
      case 6: {
        const auto rows =
            spans_(key, [&] { return report::computeTable6(opt_, &inc); });
        text = spans_("report.render_ms", [&] {
          return report::renderTable6(rows, &inc).renderAscii();
        });
        break;
      }
      default: {
        const auto t5 =
            spans_(key, [&] { return report::computeTable5(opt_, &inc); });
        const auto t6 =
            spans_(key, [&] { return report::computeTable6(opt_, &inc); });
        text = spans_("report.render_ms", [&] {
          return report::buildTable7(t5, t6, &inc).renderAscii();
        });
        break;
      }
    }
    return text + '\n';
  }

  std::string sweep() {
    std::vector<report::CellIncident> inc;
    const auto rows = spans_("report.compute_ms.sweep",
                             [&] { return report::computeSweep(opt_, &inc); });
    std::string out = spans_("report.render_ms", [&] {
      std::string s = report::renderSweep(rows, &inc).renderAscii();
      if (const std::string chart = report::renderSweepChart(rows);
          !chart.empty()) {
        s += '\n' + chart;
      }
      return s;
    });
    return out + '\n' + report::renderDiagnostics(inc);
  }

  std::string chase() {
    std::vector<report::CellIncident> inc;
    const auto rows = spans_("report.compute_ms.chase",
                             [&] { return report::computeChase(opt_, &inc); });
    std::string out = spans_("report.render_ms", [&] {
      std::string s = report::renderChaseNs(rows, &inc).renderAscii() + '\n' +
                      report::renderChaseClk(rows, &inc).renderAscii();
      if (const std::string chart = report::renderChaseChart(rows);
          !chart.empty()) {
        s += '\n' + chart;
      }
      return s;
    });
    return out + '\n' + report::renderDiagnostics(inc);
  }

  /// `table N --metrics`: the table under a trace session, then the
  /// metrics appendix. Adds the session's event count to `events`.
  std::string traced(int n, double& events) {
    trace::Session session;
    std::vector<report::CellIncident> inc;
    std::string out = table(n, inc) + report::renderDiagnostics(inc);
    for (const trace::TraceBuffer* b : session.ordered()) {
      events += static_cast<double>(b->events().size());
    }
    out += spans_("trace.export_ms",
                  [&] { return trace::metricsSummary(session); });
    return out;
  }

 private:
  Spans& spans_;
  report::TableOptions opt_;
};

struct Args {
  std::string workload;
  std::string work;
  double seconds = 2.0;
  std::string renderOut;
  std::string journal;
  std::string store;
  std::vector<std::string> shardJournals;
  std::vector<std::string> shardStores;
  std::string bodies;
  std::string replies;
  std::string stateDir;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  a.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw Error(flag + " expects a value");
      }
      return argv[++i];
    };
    if (flag == "--work") {
      a.work = next();
    } else if (flag == "--seconds") {
      a.seconds = std::stod(next());
    } else if (flag == "--render-out") {
      a.renderOut = next();
    } else if (flag == "--journal") {
      a.journal = next();
    } else if (flag == "--store") {
      a.store = next();
    } else if (flag == "--shard-journals") {
      a.shardJournals = {next(), next()};
    } else if (flag == "--shard-stores") {
      a.shardStores = {next(), next()};
    } else if (flag == "--bodies") {
      a.bodies = next();
    } else if (flag == "--replies") {
      a.replies = next();
    } else if (flag == "--state-dir") {
      a.stateDir = next();
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  if (a.work.empty()) {
    throw Error("--work DIR is required");
  }
  return a;
}

using Metrics = std::map<std::string, double>;

/// One table workload: the op is one pass of the workload's command cycle.
struct CycleResult {
  std::string output;  ///< Concatenated stdout of the cycle's commands.
  double events = 0;
};

class TableWorkload {
 public:
  explicit TableWorkload(const Args& args) : args_(args) {
    base_.binaryRuns = 100;
    base_.jobs = args.workload == "traced-campaign" ? 2 : 1;
  }

  CycleResult cycle(Spans& spans, int round) {
    CycleResult r;
    if (args_.workload == "paper-tables") {
      TableOps ops(spans, base_);
      r.output = ops.all() + ops.sweep() + ops.chase();
    } else if (args_.workload == "traced-campaign") {
      TableOps ops(spans, base_);
      for (const int n : {4, 5, 6}) {
        r.output += ops.traced(n, r.events);
      }
    } else {
      r.output = durableRoundTrip(spans, round);
    }
    return r;
  }

 private:
  /// Fresh journaled run, --resume over the finished files, then a
  /// two-shard run and its merge, checked against the fresh files.
  std::string durableRoundTrip(Spans& spans, int round) {
    const std::string tag = args_.work + "/rt" + std::to_string(round);
    const std::string j = tag + ".nbj";
    const std::string s = tag + ".nbs";
    std::string out;
    {
      report::TableOptions opt = base_;
      const auto cfg = report::campaignConfig(opt);
      auto journal = spans("campaign.journal_create_ms",
                           [&] { return campaign::Journal::create(j, cfg); });
      auto store = spans("stats.store_attach_ms", [&] {
        return stats::ResultStore::attach(s, cfg, false);
      });
      opt.journal = journal.get();
      opt.store = store.get();
      out = TableOps(spans, opt).all();
    }
    {
      report::TableOptions opt = base_;
      const auto cfg = report::campaignConfig(opt);
      auto journal = spans("campaign.journal_resume_ms",
                           [&] { return campaign::Journal::resume(j, cfg); });
      auto store = spans("stats.store_attach_ms", [&] {
        return stats::ResultStore::attach(s, cfg, true);
      });
      opt.journal = journal.get();
      opt.store = store.get();
      if (TableOps(spans, opt).all() != out) {
        throw Error("in-process resume output differs from the fresh run");
      }
    }
    std::vector<campaign::ShardInput> journals;
    std::vector<stats::ShardStoreInput> stores;
    std::vector<std::string> shardFiles;
    for (int i = 0; i < 2; ++i) {
      const auto spec = campaign::parseShardSpec(std::to_string(i) + "/2");
      campaign::ShardPlan plan(spec);
      report::TableOptions opt = base_;
      opt.shard = &plan;
      const auto cfg = report::campaignConfig(opt);
      const std::string sj = campaign::shardPath(tag + "-s.nbj", spec);
      const std::string ss = campaign::shardPath(tag + "-s.nbs", spec);
      shardFiles.insert(shardFiles.end(), {sj, ss});
      {
        auto journal = spans("campaign.journal_create_ms", [&] {
          return campaign::Journal::create(sj, cfg);
        });
        auto store = spans("stats.store_attach_ms", [&] {
          return stats::ResultStore::attach(ss, cfg, false);
        });
        opt.journal = journal.get();
        opt.store = store.get();
        (void)TableOps(spans, opt).all();
      }
      spans("campaign.merge_ms", [&] {
        journals.push_back(campaign::readShardInput(sj));
        stores.push_back(stats::loadShardStoreInput(ss));
      });
    }
    const auto merged = spans(
        "campaign.merge_ms", [&] { return campaign::mergeShardJournals(journals); });
    const auto mergedStore = spans("campaign.merge_ms", [&] {
      return stats::mergeShardStores(stores, merged);
    });
    if (merged.journalBytes != readBytes(j) || mergedStore != readBytes(s)) {
      throw Error("in-process shard merge differs from the --jobs 1 files");
    }
    removeFiles(shardFiles);
    removeFiles({j, s});
    return out;
  }

  const Args& args_;
  report::TableOptions base_;
};

/// The Table 4/5 rank pairs, with the buffer kind each cell uses.
struct LatencyPair {
  const machines::Machine* machine;
  osu::PlacementPair ranks;
  mpisim::BufferSpace::Kind kind;
};

std::vector<LatencyPair> latencyPairs() {
  std::vector<LatencyPair> pairs;
  using Kind = mpisim::BufferSpace::Kind;
  for (const machines::Machine* m : machines::cpuMachines()) {
    pairs.push_back({m, osu::onSocketPair(*m), Kind::Host});
    pairs.push_back({m, osu::onNodePair(*m), Kind::Host});
  }
  for (const machines::Machine* m : machines::gpuMachines()) {
    pairs.push_back({m, osu::onSocketPair(*m), Kind::Host});
    for (const topo::LinkClass c : m->topology.presentGpuLinkClasses()) {
      pairs.push_back({m, osu::devicePair(*m, c), Kind::Device});
    }
  }
  return pairs;
}

/// osu truth/measure per call, and — only when the workload's trace state
/// takes the event path — the event-simulated ping-pong and its switches.
void latencyLayers(bool traced, Metrics& out) {
  constexpr int kIterations = 1000;
  const ByteCount size = ByteCount::bytes(8);
  std::optional<trace::Session> session;
  if (traced) {
    session.emplace();
  }
  std::vector<double> truthUs;
  std::vector<double> measureUs;
  std::vector<double> eventUs;
  double switches = 0;
  for (const LatencyPair& p : latencyPairs()) {
    const trace::Scope scope(p.machine->info.name + "/perfbench");
    const osu::LatencyBenchmark bench(*p.machine, p.ranks.first,
                                      p.ranks.second, p.kind);
    auto start = Clock::now();
    (void)bench.truthOneWay(size, kIterations);
    truthUs.push_back(msSince(start) * 1e3);
    osu::LatencyConfig cfg;
    cfg.binaryRuns = 100;
    start = Clock::now();
    (void)osu::LatencyBenchmark(*p.machine, p.ranks.first, p.ranks.second,
                                p.kind)
        .measure(cfg);
    measureUs.push_back(msSince(start) * 1e3);
    if (mpisim::analytic::fastPathEligible()) {
      continue;
    }
    const auto space = p.kind == mpisim::BufferSpace::Kind::Device
                           ? std::pair{mpisim::BufferSpace::onDevice(
                                           *p.ranks.first.gpu),
                                       mpisim::BufferSpace::onDevice(
                                           *p.ranks.second.gpu)}
                           : std::pair{mpisim::BufferSpace::host(),
                                       mpisim::BufferSpace::host()};
    mpisim::MpiWorld world(*p.machine, {p.ranks.first, p.ranks.second});
    start = Clock::now();
    world.runEach(
        {[&](mpisim::Communicator& c) {
           for (int i = 0; i < kIterations; ++i) {
             c.send(1, 1, size, space.first);
             c.recv(1, 1, size, space.first);
           }
         },
         [&](mpisim::Communicator& c) {
           for (int i = 0; i < kIterations; ++i) {
             c.recv(0, 1, size, space.second);
             c.send(0, 1, size, space.second);
           }
         }});
    eventUs.push_back(msSince(start) * 1e3);
    switches += static_cast<double>(world.schedulerSwitchCount());
  }
  out["osu.truth_us"] = mean(truthUs);
  out["osu.measure_us"] = mean(measureUs);
  out["mpisim.pingpong_event_us"] = mean(eventUs);
  out["mpisim.vt_switches"] = switches;
}

/// Replays finished journal and store files record by record: create,
/// append each record, then resume or load the copy.
void replayJournal(const std::vector<std::string>& paths, bool resume,
                   const std::string& work, Metrics& out) {
  std::vector<double> createMs;
  std::vector<double> appendUs;
  std::vector<double> resumeMs;
  double bytes = 0;
  const std::string copy = work + "/replay.nbj";
  for (const std::string& path : paths) {
    const auto image = readBytes(path);
    const auto decoded = campaign::Journal::decode(image);
    removeFiles({copy});
    auto start = Clock::now();
    auto journal = campaign::Journal::create(copy, decoded.config);
    createMs.push_back(msSince(start));
    for (const campaign::CellRecord& rec : decoded.records) {
      start = Clock::now();
      journal->append(rec);
      appendUs.push_back(msSince(start) * 1e3);
    }
    journal.reset();
    bytes += static_cast<double>(fs::file_size(copy));
    if (resume) {
      start = Clock::now();
      (void)campaign::Journal::resume(copy, decoded.config);
      resumeMs.push_back(msSince(start));
    }
  }
  removeFiles({copy});
  out["campaign.journal_create_ms"] = median(createMs);
  out["campaign.journal_append_us"] = median(appendUs);
  out["campaign.journal_appends"] = static_cast<double>(appendUs.size());
  out["campaign.journal_resume_ms"] = median(resumeMs);
  out["campaign.journal_bytes"] = bytes;
}

void replayStore(const std::vector<std::string>& paths, bool load,
                 const std::string& work, Metrics& out) {
  std::vector<double> attachMs;
  std::vector<double> appendUs;
  std::vector<double> loadMs;
  double bytes = 0;
  const std::string copy = work + "/replay.nbs";
  for (const std::string& path : paths) {
    const auto contents = stats::ResultStore::load(path);
    removeFiles({copy});
    auto start = Clock::now();
    auto store = stats::ResultStore::attach(copy, contents.config, false);
    attachMs.push_back(msSince(start));
    for (const stats::SampleRecord& rec : contents.records) {
      start = Clock::now();
      store->append(rec);
      appendUs.push_back(msSince(start) * 1e3);
    }
    store.reset();
    bytes += static_cast<double>(fs::file_size(copy));
    if (load) {
      start = Clock::now();
      (void)stats::ResultStore::load(copy);
      loadMs.push_back(msSince(start));
    }
  }
  removeFiles({copy});
  out["stats.store_attach_ms"] = median(attachMs);
  out["stats.store_append_us"] = median(appendUs);
  out["stats.store_appends"] = static_cast<double>(appendUs.size());
  out["stats.store_load_ms"] = median(loadMs);
  out["stats.store_bytes"] = bytes;
}

void mergeLayer(const Args& args, Metrics& out) {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    std::vector<campaign::ShardInput> journals;
    std::vector<stats::ShardStoreInput> stores;
    for (std::size_t i = 0; i < args.shardJournals.size(); ++i) {
      journals.push_back(campaign::readShardInput(args.shardJournals[i]));
      stores.push_back(stats::loadShardStoreInput(args.shardStores[i]));
    }
    const auto merged = campaign::mergeShardJournals(journals);
    (void)stats::mergeShardStores(stores, merged);
    ms.push_back(msSince(start));
  }
  out["campaign.merge_ms"] = median(ms);
}

Metrics runTableWorkload(const Args& args) {
  Metrics out;
  TableWorkload wl(args);
  std::vector<double> bare;
  std::vector<double> traced;
  std::vector<double> uncovered;
  std::map<std::string, std::vector<double>> layer;
  double events = 0;
  std::string output;
  const auto start = Clock::now();
  for (int round = 0; round < 3 || msSince(start) < args.seconds * 1e3;
       ++round) {
    Spans off{false, {}};
    auto t0 = Clock::now();
    (void)wl.cycle(off, 2 * round);
    bare.push_back(msSince(t0));

    Spans on;
    t0 = Clock::now();
    CycleResult r = wl.cycle(on, 2 * round + 1);
    const double total = msSince(t0);
    traced.push_back(total);
    double covered = 0;
    for (const auto& [name, ms] : on.ms) {
      layer[name].push_back(ms);
      covered += ms;
    }
    uncovered.push_back(std::max(0.0, total - covered) / total);
    events = r.events;
    if (output.empty()) {
      output = std::move(r.output);
    }
  }
  for (const char* key :
       {"report.compute_ms.t4", "report.compute_ms.t5", "report.compute_ms.t6",
        "report.compute_ms.t7", "report.compute_ms.sweep",
        "report.compute_ms.chase", "report.render_ms", "trace.export_ms"}) {
    out[key] = median(layer[key]);
  }
  out["trace.events"] = events;
  out["bench.inproc_op_ms"] = median(traced);
  out["bench.trace_overhead_ms"] = median(traced) - median(bare);
  out["bench.uncovered_share"] = median(uncovered);
  if (!args.renderOut.empty()) {
    std::ofstream(args.renderOut, std::ios::binary) << output;
  }
  latencyLayers(args.workload == "traced-campaign", out);
  // The record replays cover only the campaign paths this workload runs.
  if (args.workload == "durable-campaign") {
    Metrics replay;
    replayJournal({args.journal}, true, args.work, replay);
    replayStore({args.store}, true, args.work, replay);
    mergeLayer(args, replay);
    for (const auto& [k, v] : replay) {
      out[k] = v;
    }
  }
  return out;
}

std::vector<std::string> filesWithSuffix(const std::string& dir,
                                         const std::string& suffix) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot read " + path);
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// serve: decode every request body the generator sent, persist spec and
/// reply the way the daemon does, and replay the daemon's journals and
/// stores record by record.
Metrics runServeWorkload(const Args& args) {
  Metrics out;
  const std::vector<std::string> bodies = readLines(args.bodies);
  const std::vector<std::string> replies = readLines(args.replies);
  if (bodies.size() != replies.size()) {
    throw Error("--bodies and --replies differ in length");
  }
  std::vector<double> decodeUs;
  std::vector<double> writeUs;
  const std::string dir = args.work + "/state-replay";
  fs::remove_all(dir);
  serve::StateDir state(dir);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    auto start = Clock::now();
    const auto req = serve::CampaignRequest::fromJson(bodies[i]);
    decodeUs.push_back(msSince(start) * 1e3);
    const std::string id = state.nextRequestId();
    start = Clock::now();
    state.writeSpec(id, req.canonicalJson());
    state.writeResult(id, replies[i]);
    writeUs.push_back(msSince(start) * 1e3);
  }
  fs::remove_all(dir);
  out["serve.decode_us"] = median(decodeUs);
  out["serve.state_write_us"] = median(writeUs);
  latencyLayers(false, out);
  replayJournal(filesWithSuffix(args.stateDir, ".journal"), false, args.work,
                out);
  replayStore(filesWithSuffix(args.stateDir, ".store"), false, args.work, out);
  return out;
}

void printEnv() {
  const bool coop = sim::VirtualTimeScheduler::defaultMode() ==
                    sim::VirtualTimeScheduler::Mode::Cooperative;
  std::cout << "{\"vt_mode\": \"" << (coop ? "cooperative" : "threads")
            << "\", \"cooperative_supported\": "
            << (sim::VirtualTimeScheduler::cooperativeSupported() ? "true"
                                                                  : "false")
            << ", \"simcore_fastpath\": "
            << (mpisim::analytic::fastPathEnabled() ? "true" : "false")
            << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // The first registry access in a fresh process builds every machine
    // card; time it before anything else touches the registry.
    const auto start = Clock::now();
    (void)machines::allMachines();
    const double registryMs = msSince(start);
    if (argc < 2) {
      throw Error("usage: perfbench_layers <workload|env> [flags]");
    }
    if (std::string(argv[1]) == "env") {
      printEnv();
      return 0;
    }
    if (std::string(argv[1]) == "cells") {
      std::size_t cells = 0;
      for (int i = 2; i < argc; ++i) {
        for (const auto& rec :
             campaign::Journal::decode(readBytes(argv[i])).records) {
          cells += rec.machine.empty() ? 0 : 1;
        }
      }
      std::cout << cells << "\n";
      return 0;
    }
    const Args args = parseArgs(argc, argv);
    fs::create_directories(args.work);
    Metrics m = args.workload == "serve-open-loop" ? runServeWorkload(args)
                                                   : runTableWorkload(args);
    m["machines.registry_ms"] = registryMs;
    std::ostringstream json;
    json.precision(17);
    json << "{";
    const char* sep = "";
    for (const auto& [k, v] : m) {
      json << sep << "\"" << k << "\": " << v;
      sep = ", ";
    }
    json << "}\n";
    std::cout << json.str();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: error: " << e.what() << "\n";
    return 1;
  }
}
