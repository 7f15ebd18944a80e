#include "report/tables.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <utility>

#include "babelstream/driver.hpp"
#include "babelstream/sim_device_backend.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/shard.hpp"
#include "commscope/commscope.hpp"
#include "core/samples.hpp"
#include "faults/fault_plan.hpp"
#include "machines/registry.hpp"
#include "ompenv/omp_config.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/cell_runner.hpp"
#include "stats/store.hpp"

namespace nodebench::report {

using machines::Machine;
using topo::LinkClass;

using cellrun::cellFailed;
using cellrun::filteredMachines;
using cellrun::naOr;
using cellrun::runCell;
using cellrun::runGrid;
using cellrun::sampleRecord;
using cellrun::StoreRecords;

namespace {

// Canonical cell names: shared by the retry harness (incident records,
// flaky-cell draws) and the renderers (n/a lookup). Changing one changes
// the fault plans that can target it.
constexpr const char* kCellHostBandwidth = "host bandwidth";
constexpr const char* kCellOnSocket = "on-socket latency";
constexpr const char* kCellOnNode = "on-node latency";
constexpr const char* kCellDeviceBandwidth = "device bandwidth";
constexpr const char* kCellHostToHost = "host-to-host latency";
constexpr const char* kCellLaunch = "kernel launch";
constexpr const char* kCellWait = "sync wait";
constexpr const char* kCellHdLatency = "H<->D latency";
constexpr const char* kCellHdBandwidth = "H<->D bandwidth";

// The OSU (Table 5) and Comm|Scope (Table 6) D2D cells measure different
// things, so they get distinct names — an incident in one must not mark
// the other as failed.
std::string d2dMpiCellName(LinkClass c) {
  return std::string("D2D MPI latency class ") +
         static_cast<char>('A' + static_cast<int>(c));
}

std::string d2dCopyCellName(LinkClass c) {
  return std::string("D2D copy latency class ") +
         static_cast<char>('A' + static_cast<int>(c));
}

}  // namespace

campaign::CampaignConfig campaignConfig(const TableOptions& opt) {
  campaign::CampaignConfig cfg;
  cfg.registryHash = campaign::registryHash();
  cfg.faultPlanHash = campaign::faultPlanHash(opt.faults);
  cfg.seed = opt.faults != nullptr ? opt.faults->seed : 0;
  cfg.runs = static_cast<std::uint32_t>(opt.binaryRuns);
  cfg.jobs = static_cast<std::uint32_t>(std::max(0, opt.jobs));
  cfg.cellRetries = static_cast<std::uint32_t>(std::max(0, opt.cellRetries));
  cfg.cpuArrayBytes = opt.cpuArrayBytes.count();
  cfg.gpuArrayBytes = opt.gpuArrayBytes.count();
  cfg.mpiMessageSize = opt.mpiMessageSize.count();
  if (opt.shard != nullptr) {
    cfg.shardIndex = opt.shard->spec().index;
    cfg.shardCount = opt.shard->spec().count;
  }
  return cfg;
}

std::string renderDiagnostics(const std::vector<CellIncident>& incidents) {
  if (incidents.empty()) {
    return {};
  }
  std::ostringstream out;
  out << "Diagnostics appendix (" << incidents.size()
      << (incidents.size() == 1 ? " incident" : " incidents") << ")\n";
  for (const CellIncident& i : incidents) {
    out << "  " << i.machine << " / " << i.cell << ": ";
    if (i.failed) {
      out << "n/a after " << i.attempts
          << (i.attempts == 1 ? " attempt" : " attempts") << ": " << i.error;
    } else {
      out << "recovered on attempt " << i.attempts << " (last error: "
          << i.error << ")";
    }
    out << "\n";
  }
  return out.str();
}

Table buildTable1() {
  Table t({"OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES"});
  t.setTitle("Table 1: OpenMP environment combinations for host bandwidth");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  // Rendered symbolically, exactly as the paper's table shows them.
  const auto row = [&](const char* n, const char* b, const char* p) {
    t.addRow({n, b, p});
  };
  row("1", "not set", "not set");
  row("1", "\"true\"", "not set");
  t.addSeparator();
  row("#cores", "not set", "not set");
  row("#cores", "\"true\"", "not set");
  row("#cores", "\"spread\"", "\"cores\"");
  row("#threads", "not set", "not set");
  row("#threads", "\"true\"", "not set");
  row("#threads", "\"close\"", "\"threads\"");
  return t;
}

Table buildTable2() {
  Table t({"Rank/Name", "Location", "CPU"});
  t.setTitle("Table 2: US DOE non-accelerator supercomputers (top 150, June 2023)");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  for (const Machine* m : machines::cpuMachines()) {
    t.addRow({std::to_string(m->info.top500Rank) + ". " + m->info.name,
              m->info.location, m->info.cpuModel});
  }
  return t;
}

Table buildTable3() {
  Table t({"Rank/Name", "Location", "CPU", "Accelerator"});
  t.setTitle("Table 3: US DOE accelerator supercomputers (top 150, June 2023)");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  t.setAlign(3, Align::Left);
  for (const Machine* m : machines::gpuMachines()) {
    t.addRow({std::to_string(m->info.top500Rank) + ". " + m->info.name,
              m->info.location, m->info.cpuModel, m->info.acceleratorModel});
  }
  return t;
}

OmpSweepResult ompSweep(const Machine& m, const TableOptions& opt,
                        std::uint64_t seedSalt) {
  const auto configs =
      ompenv::table1Combinations(m.coreCount(), m.hardwareThreadCount());
  // All eight combinations share one seed and two noise cvs, so one
  // noise loop measures them together (babelstream::run over several
  // backends), drawing each run's factor once per cv.
  std::deque<babelstream::SimOmpBackend> backends;
  std::vector<babelstream::Backend*> measured;
  for (const ompenv::OmpConfig& cfg : configs) {
    measured.push_back(&backends.emplace_back(m, cfg));
  }
  babelstream::DriverConfig dcfg;
  dcfg.arrayBytes = opt.cpuArrayBytes;
  dcfg.binaryRuns = opt.binaryRuns;
  dcfg.seed ^= m.seed ^ seedSalt;
  const std::vector<babelstream::RunResult> results =
      babelstream::run(measured, dcfg);
  // Reduce in Table 1 order: strictly greater, first wins.
  OmpSweepResult out;
  std::optional<std::size_t> single;
  std::optional<std::size_t> all;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const babelstream::OpResult& best = results[i].best();
    out.entries.push_back(OmpSweepEntry{
        configs[i].toString(), best.bandwidthGBps,
        std::string(babelstream::streamOpName(best.op))});
    std::optional<std::size_t>& winner =
        configs[i].numThreads.value_or(2) == 1 ? single : all;
    if (!winner || best.bandwidthGBps.mean >
                       out.entries[*winner].bestOpGBps.mean) {
      winner = i;
    }
  }
  NB_ENSURES(single && all);
  out.bestSingle = out.entries[*single].bestOpGBps;
  out.bestAll = out.entries[*all].bestOpGBps;
  // A --store run keeps the two winners' raw draws, drawn again from their
  // truths rather than recorded for all eight combinations.
  if (activeSampleCapture() != nullptr) {
    out.bestSingleSamples = babelstream::replaySamples(
        backends[*single], results[*single].best(), dcfg);
    out.bestAllSamples = babelstream::replaySamples(
        backends[*all], results[*all].best(), dcfg);
  }
  return out;
}

namespace {

/// One OSU ping-pong latency cell between the two ranks `pair(m)` places,
/// with buffers in `kind` memory.
template <typename Pair>
std::optional<std::array<Summary, 1>> osuLatencyCell(
    const TableOptions& opt, const Machine& m, const std::string& cell,
    CellIncident& slot, mpisim::BufferSpace::Kind kind, Pair&& pair) {
  return runCell(
      opt, m, cell, slot,
      [&](std::uint64_t salt) {
        osu::LatencyConfig cfg;
        cfg.messageSize = opt.mpiMessageSize;
        cfg.binaryRuns = opt.binaryRuns;
        cfg.seed ^= salt;
        const auto [a, b] = pair(m);
        return std::array{
            osu::LatencyBenchmark(m, a, b, kind).measure(cfg).latencyUs};
      },
      [](SampleCapture& cap, const std::array<Summary, 1>& v,
         StoreRecords& out) {
        out.push_back(sampleRecord("latency", "us", stats::Better::Lower, v[0],
                                   cap.take(osu::kLatencySampleChannel)));
      });
}

/// One (machine, cell) task of Table 4. The two latency cells name their
/// rank pair and row field; the host bandwidth cell leaves both null.
struct Cpu4Task {
  std::size_t machineIdx = 0;
  std::string cell;
  osu::PlacementPair (*pair)(const Machine&) = nullptr;
  Summary Cpu4Row::*latency = nullptr;
};

}  // namespace

std::vector<Cpu4Row> computeTable4(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(machines::cpuMachines(), opt);
  std::vector<Cpu4Row> rows(ms.size());
  std::vector<Cpu4Task> tasks;
  tasks.reserve(ms.size() * 3);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    tasks.push_back({i, kCellHostBandwidth});
    tasks.push_back({i, kCellOnSocket, osu::onSocketPair, &Cpu4Row::onSocketUs});
    tasks.push_back({i, kCellOnNode, osu::onNodePair, &Cpu4Row::onNodeUs});
  }
  runGrid(opt, "table 4", ms, tasks, incidents,
          [&](const Machine& m, const Cpu4Task& task, CellIncident& slot) {
            Cpu4Row& row = rows[task.machineIdx];
            if (task.pair != nullptr) {
              if (const auto v = osuLatencyCell(opt, m, task.cell, slot,
                                                mpisim::BufferSpace::Kind::Host,
                                                task.pair)) {
                row.*task.latency = (*v)[0];
              }
              return;
            }
            // The sweep's winning sample vectors, stashed by the body for
            // the store (the one cell that yields two store records).
            std::vector<double> singleSamples;
            std::vector<double> allSamples;
            const auto v = runCell(
                opt, m, task.cell, slot,
                [&](std::uint64_t salt) {
                  OmpSweepResult sweep = ompSweep(m, opt, salt);
                  singleSamples = std::move(sweep.bestSingleSamples);
                  allSamples = std::move(sweep.bestAllSamples);
                  return std::array{sweep.bestSingle, sweep.bestAll};
                },
                [&](SampleCapture&, const std::array<Summary, 2>& values,
                    StoreRecords& out) {
                  out.push_back(sampleRecord("single-thread bandwidth", "GB/s",
                                             stats::Better::Higher, values[0],
                                             std::move(singleSamples)));
                  out.push_back(sampleRecord("full-team bandwidth", "GB/s",
                                             stats::Better::Higher, values[1],
                                             std::move(allSamples)));
                },
                /*storeRecords=*/2);
            if (v) {
              row.singleGBps = (*v)[0];
              row.allGBps = (*v)[1];
            }
          });
  return rows;
}

namespace {

std::string rankName(const Machine& m) {
  return std::to_string(m.info.top500Rank) + ". " + m.info.name;
}

std::string cellOrEmpty(const std::optional<Summary>& s, int precision = 2) {
  return s ? s->toString(precision) : std::string{};
}

}  // namespace

Table renderTable4(const std::vector<Cpu4Row>& rows,
                   const std::vector<CellIncident>* incidents) {
  Table t({"Rank/Name", "Single (GB/s)", "All (GB/s)", "Peak (GB/s)",
           "On-Socket (us)", "On-Node (us)"});
  t.setTitle("Table 4: CPU memory bandwidth and MPI latency (mean +- sigma, 100 runs)");
  for (const Cpu4Row& row : rows) {
    const std::string& name = row.machine->info.name;
    const bool bwFailed = cellFailed(incidents, name, kCellHostBandwidth);
    t.addRow({rankName(*row.machine),
              naOr(bwFailed, row.singleGBps.toString()),
              naOr(bwFailed, row.allGBps.toString()),
              row.machine->hostMemory.peakNote,
              naOr(cellFailed(incidents, name, kCellOnSocket),
                   row.onSocketUs.toString()),
              naOr(cellFailed(incidents, name, kCellOnNode),
                   row.onNodeUs.toString())});
  }
  return t;
}

namespace {

/// One (machine, cell) task of Table 5: the device bandwidth cell, the
/// host-to-host latency cell, or a D2D latency cell of class `linkClass`.
struct Gpu5Task {
  std::size_t machineIdx = 0;
  std::string cell;
  bool deviceBandwidth = false;
  LinkClass linkClass = LinkClass::None;
};

}  // namespace

std::vector<Gpu5Row> computeTable5(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(machines::gpuMachines(), opt);
  std::vector<Gpu5Row> rows(ms.size());
  // The present link classes differ per machine, so the grid is ragged.
  // It is always the *registry* machine's — a fault plan never changes
  // the table's shape, only which cells degrade to "n/a". Listing the
  // classes also primes each topology's route cache before the fan-out.
  std::vector<Gpu5Task> tasks;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    tasks.push_back({i, kCellDeviceBandwidth, true});
    tasks.push_back({i, kCellHostToHost});
    for (const LinkClass c : ms[i]->topology.presentGpuLinkClasses()) {
      tasks.push_back({i, d2dMpiCellName(c), false, c});
    }
  }
  runGrid(
      opt, "table 5", ms, tasks, incidents,
      [&](const Machine& m, const Gpu5Task& task, CellIncident& slot) {
        Gpu5Row& row = rows[task.machineIdx];
        if (task.deviceBandwidth) {
          // Winning STREAM op, stashed by the body so the store can pull
          // that op's raw-sample channel.
          std::string bestOp;
          if (const auto v = runCell(
                  opt, m, task.cell, slot,
                  [&](std::uint64_t salt) {
                    babelstream::SimDeviceBackend backend(m, /*device=*/0);
                    babelstream::DriverConfig dcfg;
                    dcfg.arrayBytes = opt.gpuArrayBytes;
                    dcfg.binaryRuns = opt.binaryRuns;
                    dcfg.seed ^= m.seed ^ salt;
                    const babelstream::RunResult result =
                        babelstream::run(backend, dcfg);
                    const auto& best = result.best();
                    bestOp = std::string(babelstream::streamOpName(best.op));
                    return std::array{best.bandwidthGBps};
                  },
                  [&](SampleCapture& cap, const std::array<Summary, 1>& values,
                      StoreRecords& out) {
                    out.push_back(sampleRecord("bandwidth", "GB/s",
                                               stats::Better::Higher,
                                               values[0], cap.take(bestOp)));
                  })) {
            row.deviceGBps = (*v)[0];
          }
        } else if (task.linkClass == LinkClass::None) {
          if (const auto v =
                  osuLatencyCell(opt, m, task.cell, slot,
                                 mpisim::BufferSpace::Kind::Host,
                                 osu::onSocketPair)) {
            row.hostToHostUs = (*v)[0];
          }
        } else if (const auto v = osuLatencyCell(
                       opt, m, task.cell, slot,
                       mpisim::BufferSpace::Kind::Device,
                       [&](const Machine& measured) {
                         return osu::devicePair(measured, task.linkClass);
                       })) {
          row.deviceToDeviceUs[static_cast<int>(task.linkClass)] = (*v)[0];
        }
      });
  return rows;
}

Table renderTable5(const std::vector<Gpu5Row>& rows,
                   const std::vector<CellIncident>* incidents) {
  Table t({"Rank/Name", "Device BW (GB/s)", "Peak", "Host-to-Host (us)",
           "D2D A (us)", "D2D B (us)", "D2D C (us)", "D2D D (us)"});
  t.setTitle("Table 5: GPU memory bandwidth and MPI latency (mean +- sigma, 100 runs)");
  for (const Gpu5Row& row : rows) {
    const std::string& name = row.machine->info.name;
    // A class absent from the machine stays blank; a class whose
    // measurement failed renders "n/a".
    const auto d2d = [&](int c) {
      return naOr(cellFailed(incidents, name,
                             d2dMpiCellName(static_cast<LinkClass>(c))),
                  cellOrEmpty(row.deviceToDeviceUs[c]));
    };
    t.addRow({rankName(*row.machine),
              naOr(cellFailed(incidents, name, kCellDeviceBandwidth),
                   row.deviceGBps.toString()),
              row.machine->device->hbmPeakNote,
              naOr(cellFailed(incidents, name, kCellHostToHost),
                   row.hostToHostUs.toString()),
              d2d(0), d2d(1), d2d(2), d2d(3)});
  }
  return t;
}

namespace {

/// One Comm|Scope quantity of Table 6: its cell, the CommScope method
/// that measures it, the row field that keeps it, and its store record.
struct ScopeQuantity {
  const char* cell;
  Summary (commscope::CommScope::*measure)(const commscope::Config&);
  Summary Gpu6Row::*field;
  const char* quantity;
  const char* unit;
  stats::Better better;
  const char* channel;
};

constexpr ScopeQuantity kScopeQuantities[] = {
    {kCellLaunch, &commscope::CommScope::kernelLaunchUs, &Gpu6Row::launchUs,
     "latency", "us", stats::Better::Lower, commscope::kLaunchSampleChannel},
    {kCellWait, &commscope::CommScope::syncWaitUs, &Gpu6Row::waitUs, "latency",
     "us", stats::Better::Lower, commscope::kWaitSampleChannel},
    {kCellHdLatency, &commscope::CommScope::hostDeviceLatencyUs,
     &Gpu6Row::hostDeviceLatencyUs, "latency", "us", stats::Better::Lower,
     commscope::kHdLatencySampleChannel},
    {kCellHdBandwidth, &commscope::CommScope::hostDeviceBandwidthGBps,
     &Gpu6Row::hostDeviceBandwidthGBps, "bandwidth", "GB/s",
     stats::Better::Higher, commscope::kHdBandwidthSampleChannel},
};

/// The per-class D2D copy cells: named by d2dCopyCellName, measured by
/// CommScope::d2dLatencyUs and kept in Gpu6Row::d2dLatencyUs.
constexpr ScopeQuantity kScopeD2d{nullptr,   nullptr, nullptr,
                                  "latency", "us",    stats::Better::Lower,
                                  commscope::kD2dLatencySampleChannel};

struct Gpu6Task {
  std::size_t machineIdx = 0;
  std::string cell;
  const ScopeQuantity* quantity = nullptr;
  LinkClass linkClass = LinkClass::None;
};

}  // namespace

std::vector<Gpu6Row> computeTable6(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(machines::gpuMachines(), opt);
  std::vector<Gpu6Row> rows(ms.size());
  std::vector<Gpu6Task> tasks;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    for (const ScopeQuantity& q : kScopeQuantities) {
      tasks.push_back({i, q.cell, &q});
    }
    for (const LinkClass c : ms[i]->topology.presentGpuLinkClasses()) {
      tasks.push_back({i, d2dCopyCellName(c), &kScopeD2d, c});
    }
  }
  // Each Comm|Scope quantity is measured by its own scope instance: the
  // truth methods reset the simulated runtime before measuring and the
  // aggregate noise streams are seeded from the cell identity alone, so a
  // per-cell instance reports exactly what the shared-instance
  // measureAll() sequence reported.
  runGrid(
      opt, "table 6", ms, tasks, incidents,
      [&](const Machine& m, const Gpu6Task& task, CellIncident& slot) {
        const ScopeQuantity& q = *task.quantity;
        const auto v = runCell(
            opt, m, task.cell, slot,
            [&](std::uint64_t salt) {
              commscope::CommScope scope(m);
              commscope::Config cfg;
              cfg.binaryRuns = opt.binaryRuns;
              cfg.seed ^= salt;
              return std::array{q.measure != nullptr
                                    ? (scope.*q.measure)(cfg)
                                    : scope.d2dLatencyUs(task.linkClass, cfg)};
            },
            [&](SampleCapture& cap, const std::array<Summary, 1>& values,
                StoreRecords& out) {
              out.push_back(sampleRecord(q.quantity, q.unit, q.better,
                                         values[0], cap.take(q.channel)));
            });
        if (!v) {
          return;
        }
        Gpu6Row& row = rows[task.machineIdx];
        if (q.field != nullptr) {
          row.*q.field = (*v)[0];
        } else {
          row.d2dLatencyUs[static_cast<int>(task.linkClass)] = (*v)[0];
        }
      });
  return rows;
}

Table renderTable6(const std::vector<Gpu6Row>& rows,
                   const std::vector<CellIncident>* incidents) {
  Table t({"Rank/Name", "Launch (us)", "Wait (us)", "H<->D Lat (us)",
           "H<->D BW (GB/s)", "D2D A (us)", "D2D B (us)", "D2D C (us)",
           "D2D D (us)"});
  t.setTitle(
      "Table 6: Comm|Scope kernel/wait latencies and transfer costs "
      "(mean +- sigma, 100 runs)");
  for (const Gpu6Row& row : rows) {
    const std::string& name = row.machine->info.name;
    const auto d2d = [&](int c) {
      return naOr(cellFailed(incidents, name,
                             d2dCopyCellName(static_cast<LinkClass>(c))),
                  cellOrEmpty(row.d2dLatencyUs[c]));
    };
    std::vector<std::string> cells{rankName(*row.machine)};
    for (const ScopeQuantity& q : kScopeQuantities) {
      cells.push_back(naOr(cellFailed(incidents, name, q.cell),
                           (row.*q.field).toString()));
    }
    for (int c = 0; c < 4; ++c) {
      cells.push_back(d2d(c));
    }
    t.addRow(std::move(cells));
  }
  return t;
}

namespace {

/// Min-max of the mean values across a group of machines, rendered
/// "lo-hi" as in Table 7.
class Range {
 public:
  void add(const Summary& s) {
    lo_ = empty_ ? s.mean : std::min(lo_, s.mean);
    hi_ = empty_ ? s.mean : std::max(hi_, s.mean);
    empty_ = false;
  }
  void addIf(const std::optional<Summary>& s) {
    if (s) {
      add(*s);
    }
  }
  [[nodiscard]] std::string str(int precision = 2) const {
    if (empty_) {
      return {};
    }
    return formatFixed(lo_, precision) + "-" + formatFixed(hi_, precision);
  }

 private:
  bool empty_ = true;
  double lo_ = 0.0;
  double hi_ = 0.0;
};

}  // namespace

Table buildTable7(const std::vector<Gpu5Row>& t5,
                  const std::vector<Gpu6Row>& t6,
                  const std::vector<CellIncident>* incidents) {
  Table t({"Accelerator", "Memory BW", "MPI Lat.", "Kernel Launch",
           "Kernel Wait", "H2D/D2H Lat.", "H2D/D2H BW", "D2D Lat."});
  t.setTitle(
      "Table 7: min-max of mean values across machines, per accelerator");
  for (const auto& group : machines::acceleratorGroups()) {
    Range bw;
    Range mpi;
    Range launch;
    Range wait;
    Range hdLat;
    Range hdBw;
    Range d2d;
    for (const Machine* m : group.members) {
      // Failed cells hold zero-initialised placeholders; keep them out of
      // the min-max ranges.
      const auto ok = [&](const char* cell) {
        return !cellFailed(incidents, m->info.name, cell);
      };
      const std::string mpiClassA = d2dMpiCellName(LinkClass::A);
      const std::string copyClassA = d2dCopyCellName(LinkClass::A);
      for (const Gpu5Row& row : t5) {
        if (row.machine != m) {
          continue;
        }
        if (ok(kCellDeviceBandwidth)) {
          bw.add(row.deviceGBps);
        }
        // The paper's Table 7 ranges cover the class-A (direct-link) pair
        // of each machine: e.g. its V100 MPI range is 18.10-18.72, which
        // excludes the class-B 19.30-19.76 values.
        if (ok(mpiClassA.c_str())) {
          mpi.addIf(row.deviceToDeviceUs[0]);
        }
      }
      for (const Gpu6Row& row : t6) {
        if (row.machine != m) {
          continue;
        }
        if (ok(kCellLaunch)) {
          launch.add(row.launchUs);
        }
        if (ok(kCellWait)) {
          wait.add(row.waitUs);
        }
        if (ok(kCellHdLatency)) {
          hdLat.add(row.hostDeviceLatencyUs);
        }
        if (ok(kCellHdBandwidth)) {
          hdBw.add(row.hostDeviceBandwidthGBps);
        }
        if (ok(copyClassA.c_str())) {
          d2d.addIf(row.d2dLatencyUs[0]);  // class A, as above
        }
      }
    }
    t.addRow({group.name, bw.str(), mpi.str(), launch.str(), wait.str(),
              hdLat.str(), hdBw.str(), d2d.str()});
  }
  return t;
}

Table buildTable8() {
  Table t({"Rank/Name", "Compiler", "MPI"});
  t.setTitle("Table 8: software environment, non-accelerator machines");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  for (const Machine* m : machines::cpuMachines()) {
    t.addRow({rankName(*m), m->env.compiler, m->env.mpi});
  }
  return t;
}

Table buildTable9() {
  Table t({"Rank/Name", "Compiler", "Device Library", "MPI"});
  t.setTitle("Table 9: software environment, accelerator machines");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  t.setAlign(3, Align::Left);
  for (const Machine* m : machines::gpuMachines()) {
    t.addRow(
        {rankName(*m), m->env.compiler, m->env.deviceLibrary, m->env.mpi});
  }
  return t;
}

}  // namespace nodebench::report
