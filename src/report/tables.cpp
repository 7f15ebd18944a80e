#include "report/tables.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "babelstream/driver.hpp"
#include "babelstream/sim_device_backend.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/shard.hpp"
#include "commscope/commscope.hpp"
#include "core/parallel.hpp"
#include "core/samples.hpp"
#include "faults/fault_plan.hpp"
#include "machines/registry.hpp"
#include "ompenv/omp_config.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/cell_runner.hpp"
#include "stats/store.hpp"
#include "trace/trace.hpp"

namespace nodebench::report {

using machines::Machine;
using topo::LinkClass;

// The shared cell harness (extracted to cell_runner.hpp so the memlab
// families reuse it); tables.cpp predates the split, so pull the names
// back in unqualified.
using cellrun::cellFailed;
using cellrun::collectIncidents;
using cellrun::filteredMachines;
using cellrun::loadOptSummary;
using cellrun::loadSummary;
using cellrun::MeasuredMachines;
using cellrun::naOr;
using cellrun::runCell;
using cellrun::sampleRecord;
using cellrun::saveOptSummary;
using cellrun::saveSummary;
using cellrun::StoreRecords;
using cellrun::throwIfCancelled;

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

std::vector<Cpu4Row> computeTable4(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(machines::cpuMachines(), opt);
  const MeasuredMachines measured(ms, opt.faults);
  std::vector<Cpu4Row> rows(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
  }
  if (opt.shard != nullptr) {
    // The grid in task-enumeration order — the record order a --jobs 1
    // journal run writes, which is what the merge reconstructs.
    std::vector<campaign::GridCell> grid;
    grid.reserve(ms.size() * 3);
    for (const Machine* m : ms) {
      grid.push_back({m->info.name, kCellHostBandwidth});
      grid.push_back({m->info.name, kCellOnSocket});
      grid.push_back({m->info.name, kCellOnNode});
    }
    opt.shard->registerTable("table 4", std::move(grid), opt.journal);
  }
  // Three independent cells per machine; each task writes distinct fields
  // of its pre-allocated row (and its own incident slot).
  std::vector<CellIncident> slots(ms.size() * 3);
  par::parallelForEach(
      slots.size(),
      [&](std::size_t task) {
        const Machine& m = measured.at(ms, task / 3);
        Cpu4Row& row = rows[task / 3];
        osu::LatencyConfig lcfg;
        lcfg.messageSize = opt.mpiMessageSize;
        lcfg.binaryRuns = opt.binaryRuns;
        switch (task % 3) {
          case 0: {
            // The sweep's winning sample vectors, stashed by the body for
            // the storeSave below (the host bandwidth cell is the one cell
            // that yields two store records).
            std::vector<double> singleSamples;
            std::vector<double> allSamples;
            runCell(opt, m, kCellHostBandwidth, slots[task],
                    [&](std::uint64_t salt) {
                      OmpSweepResult sweep = ompSweep(m, opt, salt);
                      row.singleGBps = sweep.bestSingle;
                      row.allGBps = sweep.bestAll;
                      singleSamples = std::move(sweep.bestSingleSamples);
                      allSamples = std::move(sweep.bestAllSamples);
                    },
                    [&](campaign::PayloadWriter& w) {
                      campaign::putSummary(w, row.singleGBps);
                      campaign::putSummary(w, row.allGBps);
                    },
                    [&](campaign::PayloadReader& r) {
                      row.singleGBps = campaign::readSummary(r);
                      row.allGBps = campaign::readSummary(r);
                    },
                    [&](SampleCapture&, StoreRecords& out) {
                      out.push_back(sampleRecord(
                          slots[task], "single-thread bandwidth", "GB/s",
                          stats::Better::Higher, row.singleGBps,
                          std::move(singleSamples)));
                      out.push_back(sampleRecord(
                          slots[task], "full-team bandwidth", "GB/s",
                          stats::Better::Higher, row.allGBps,
                          std::move(allSamples)));
                    },
                    /*storeRecords=*/2);
            break;
          }
          case 1:
            runCell(opt, m, kCellOnSocket, slots[task],
                    [&](std::uint64_t salt) {
                      osu::LatencyConfig cfg = lcfg;
                      cfg.seed ^= salt;
                      const auto [sockA, sockB] = osu::onSocketPair(m);
                      row.onSocketUs =
                          osu::LatencyBenchmark(m, sockA, sockB,
                                                mpisim::BufferSpace::Kind::Host)
                              .measure(cfg)
                              .latencyUs;
                    },
                    saveSummary(row.onSocketUs), loadSummary(row.onSocketUs),
                    [&](SampleCapture& cap, StoreRecords& out) {
                      out.push_back(sampleRecord(
                          slots[task], "latency", "us", stats::Better::Lower,
                          row.onSocketUs,
                          cap.take(osu::kLatencySampleChannel)));
                    });
            break;
          case 2:
            runCell(opt, m, kCellOnNode, slots[task],
                    [&](std::uint64_t salt) {
                      osu::LatencyConfig cfg = lcfg;
                      cfg.seed ^= salt;
                      const auto [nodeA, nodeB] = osu::onNodePair(m);
                      row.onNodeUs =
                          osu::LatencyBenchmark(m, nodeA, nodeB,
                                                mpisim::BufferSpace::Kind::Host)
                              .measure(cfg)
                              .latencyUs;
                    },
                    saveSummary(row.onNodeUs), loadSummary(row.onNodeUs),
                    [&](SampleCapture& cap, StoreRecords& out) {
                      out.push_back(sampleRecord(
                          slots[task], "latency", "us", stats::Better::Lower,
                          row.onNodeUs,
                          cap.take(osu::kLatencySampleChannel)));
                    });
            break;
          default:
            break;
        }
      },
      opt.jobs);
  throwIfCancelled(opt);
  collectIncidents(std::move(slots), incidents);
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

/// One (machine, cell) work item of the GPU-table fan-outs. `linkClass`
/// is meaningful only for the per-class D2D cells.
struct GpuCellTask {
  std::size_t machineIdx = 0;
  int kind = 0;
  LinkClass linkClass = LinkClass::None;
};

}  // namespace

std::vector<Gpu5Row> computeTable5(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(machines::gpuMachines(), opt);
  const MeasuredMachines measured(ms, opt.faults);
  std::vector<Gpu5Row> rows(ms.size());

  // Enumerate the (machine x cell) grid up front; the present link
  // classes differ per machine, so the task list is ragged. The grid is
  // always the *registry* machine's — a fault plan never changes the
  // table's shape, only which cells degrade to "n/a". Enumeration also
  // primes each topology's route cache before the fan-out.
  enum { kBabelstream = 0, kHostLatency = 1, kDeviceLatency = 2 };
  std::vector<GpuCellTask> tasks;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    tasks.push_back({i, kBabelstream, LinkClass::None});
    tasks.push_back({i, kHostLatency, LinkClass::None});
    for (const LinkClass c : ms[i]->topology.presentGpuLinkClasses()) {
      tasks.push_back({i, kDeviceLatency, c});
    }
  }

  if (opt.shard != nullptr) {
    std::vector<campaign::GridCell> grid;
    grid.reserve(tasks.size());
    for (const GpuCellTask& task : tasks) {
      const std::string& machine = ms[task.machineIdx]->info.name;
      switch (task.kind) {
        case kBabelstream:
          grid.push_back({machine, kCellDeviceBandwidth});
          break;
        case kHostLatency:
          grid.push_back({machine, kCellHostToHost});
          break;
        default:
          grid.push_back({machine, d2dMpiCellName(task.linkClass)});
          break;
      }
    }
    opt.shard->registerTable("table 5", std::move(grid), opt.journal);
  }

  std::vector<CellIncident> slots(tasks.size());
  par::parallelForEach(
      tasks.size(),
      [&](std::size_t t) {
        const GpuCellTask& task = tasks[t];
        const Machine& m = measured.at(ms, task.machineIdx);
        Gpu5Row& row = rows[task.machineIdx];
        osu::LatencyConfig lcfg;
        lcfg.messageSize = opt.mpiMessageSize;
        lcfg.binaryRuns = opt.binaryRuns;
        switch (task.kind) {
          case kBabelstream: {
            // Winning STREAM op, stashed by the body so storeSave can pull
            // that op's raw-sample channel.
            std::string bestOp;
            runCell(opt, m, kCellDeviceBandwidth, slots[t],
                    [&](std::uint64_t salt) {
                      babelstream::SimDeviceBackend backend(m, /*device=*/0);
                      babelstream::DriverConfig dcfg;
                      dcfg.arrayBytes = opt.gpuArrayBytes;
                      dcfg.binaryRuns = opt.binaryRuns;
                      dcfg.seed ^= m.seed ^ salt;
                      const babelstream::RunResult result =
                          babelstream::run(backend, dcfg);
                      const auto& best = result.best();
                      row.deviceGBps = best.bandwidthGBps;
                      bestOp = std::string(babelstream::streamOpName(best.op));
                    },
                    saveSummary(row.deviceGBps), loadSummary(row.deviceGBps),
                    [&](SampleCapture& cap, StoreRecords& out) {
                      out.push_back(sampleRecord(
                          slots[t], "bandwidth", "GB/s", stats::Better::Higher,
                          row.deviceGBps, cap.take(bestOp)));
                    });
            break;
          }
          case kHostLatency:
            runCell(opt, m, kCellHostToHost, slots[t],
                    [&](std::uint64_t salt) {
                      osu::LatencyConfig cfg = lcfg;
                      cfg.seed ^= salt;
                      const auto [hostA, hostB] = osu::onSocketPair(m);
                      row.hostToHostUs =
                          osu::LatencyBenchmark(m, hostA, hostB,
                                                mpisim::BufferSpace::Kind::Host)
                              .measure(cfg)
                              .latencyUs;
                    },
                    saveSummary(row.hostToHostUs),
                    loadSummary(row.hostToHostUs),
                    [&](SampleCapture& cap, StoreRecords& out) {
                      out.push_back(sampleRecord(
                          slots[t], "latency", "us", stats::Better::Lower,
                          row.hostToHostUs,
                          cap.take(osu::kLatencySampleChannel)));
                    });
            break;
          case kDeviceLatency: {
            auto& d2dSlot =
                row.deviceToDeviceUs[static_cast<int>(task.linkClass)];
            runCell(opt, m, d2dMpiCellName(task.linkClass), slots[t],
                    [&](std::uint64_t salt) {
                      osu::LatencyConfig cfg = lcfg;
                      cfg.seed ^= salt;
                      const auto [devA, devB] =
                          osu::devicePair(m, task.linkClass);
                      d2dSlot =
                          osu::LatencyBenchmark(
                              m, devA, devB,
                              mpisim::BufferSpace::Kind::Device)
                              .measure(cfg)
                              .latencyUs;
                    },
                    saveOptSummary(d2dSlot), loadOptSummary(d2dSlot),
                    [&](SampleCapture& cap, StoreRecords& out) {
                      out.push_back(sampleRecord(
                          slots[t], "latency", "us", stats::Better::Lower,
                          *d2dSlot, cap.take(osu::kLatencySampleChannel)));
                    });
            break;
          }
          default:
            break;
        }
      },
      opt.jobs);
  throwIfCancelled(opt);
  collectIncidents(std::move(slots), incidents);
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

std::vector<Gpu6Row> computeTable6(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(machines::gpuMachines(), opt);
  const MeasuredMachines measured(ms, opt.faults);
  std::vector<Gpu6Row> rows(ms.size());

  // Each Comm|Scope quantity is measured by its own scope instance: the
  // truth methods reset the simulated runtime before measuring and the
  // aggregate noise streams are seeded from the cell identity alone, so a
  // per-cell instance reports exactly what the shared-instance
  // measureAll() sequence reported.
  enum {
    kLaunch = 0,
    kWait = 1,
    kHostDeviceLatency = 2,
    kHostDeviceBandwidth = 3,
    kD2dLatency = 4
  };
  std::vector<GpuCellTask> tasks;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    tasks.push_back({i, kLaunch, LinkClass::None});
    tasks.push_back({i, kWait, LinkClass::None});
    tasks.push_back({i, kHostDeviceLatency, LinkClass::None});
    tasks.push_back({i, kHostDeviceBandwidth, LinkClass::None});
    for (const LinkClass c : ms[i]->topology.presentGpuLinkClasses()) {
      tasks.push_back({i, kD2dLatency, c});
    }
  }

  if (opt.shard != nullptr) {
    std::vector<campaign::GridCell> grid;
    grid.reserve(tasks.size());
    for (const GpuCellTask& task : tasks) {
      const std::string& machine = ms[task.machineIdx]->info.name;
      switch (task.kind) {
        case kLaunch:
          grid.push_back({machine, kCellLaunch});
          break;
        case kWait:
          grid.push_back({machine, kCellWait});
          break;
        case kHostDeviceLatency:
          grid.push_back({machine, kCellHdLatency});
          break;
        case kHostDeviceBandwidth:
          grid.push_back({machine, kCellHdBandwidth});
          break;
        default:
          grid.push_back({machine, d2dCopyCellName(task.linkClass)});
          break;
      }
    }
    opt.shard->registerTable("table 6", std::move(grid), opt.journal);
  }

  std::vector<CellIncident> slots(tasks.size());
  par::parallelForEach(
      tasks.size(),
      [&](std::size_t t) {
        const GpuCellTask& task = tasks[t];
        const Machine& m = measured.at(ms, task.machineIdx);
        Gpu6Row& row = rows[task.machineIdx];
        const auto cellName = [&] {
          switch (task.kind) {
            case kLaunch: return std::string(kCellLaunch);
            case kWait: return std::string(kCellWait);
            case kHostDeviceLatency: return std::string(kCellHdLatency);
            case kHostDeviceBandwidth: return std::string(kCellHdBandwidth);
            default: return d2dCopyCellName(task.linkClass);
          }
        };
        runCell(opt, m, cellName(), slots[t],
                [&](std::uint64_t salt) {
                  commscope::CommScope scope(m);
                  commscope::Config cfg;
                  cfg.binaryRuns = opt.binaryRuns;
                  cfg.seed ^= salt;
                  switch (task.kind) {
                    case kLaunch:
                      row.launchUs = scope.kernelLaunchUs(cfg);
                      break;
                    case kWait:
                      row.waitUs = scope.syncWaitUs(cfg);
                      break;
                    case kHostDeviceLatency:
                      row.hostDeviceLatencyUs = scope.hostDeviceLatencyUs(cfg);
                      break;
                    case kHostDeviceBandwidth:
                      row.hostDeviceBandwidthGBps =
                          scope.hostDeviceBandwidthGBps(cfg);
                      break;
                    case kD2dLatency:
                      row.d2dLatencyUs[static_cast<int>(task.linkClass)] =
                          scope.d2dLatencyUs(task.linkClass, cfg);
                      break;
                    default:
                      break;
                  }
                },
                [&](campaign::PayloadWriter& w) {
                  switch (task.kind) {
                    case kLaunch:
                      campaign::putSummary(w, row.launchUs);
                      break;
                    case kWait:
                      campaign::putSummary(w, row.waitUs);
                      break;
                    case kHostDeviceLatency:
                      campaign::putSummary(w, row.hostDeviceLatencyUs);
                      break;
                    case kHostDeviceBandwidth:
                      campaign::putSummary(w, row.hostDeviceBandwidthGBps);
                      break;
                    case kD2dLatency:
                      campaign::putSummary(
                          w,
                          *row.d2dLatencyUs[static_cast<int>(task.linkClass)]);
                      break;
                    default:
                      break;
                  }
                },
                [&](campaign::PayloadReader& r) {
                  switch (task.kind) {
                    case kLaunch:
                      row.launchUs = campaign::readSummary(r);
                      break;
                    case kWait:
                      row.waitUs = campaign::readSummary(r);
                      break;
                    case kHostDeviceLatency:
                      row.hostDeviceLatencyUs = campaign::readSummary(r);
                      break;
                    case kHostDeviceBandwidth:
                      row.hostDeviceBandwidthGBps = campaign::readSummary(r);
                      break;
                    case kD2dLatency:
                      row.d2dLatencyUs[static_cast<int>(task.linkClass)] =
                          campaign::readSummary(r);
                      break;
                    default:
                      break;
                  }
                },
                [&](SampleCapture& cap, StoreRecords& out) {
                  switch (task.kind) {
                    case kLaunch:
                      out.push_back(sampleRecord(
                          slots[t], "latency", "us", stats::Better::Lower,
                          row.launchUs,
                          cap.take(commscope::kLaunchSampleChannel)));
                      break;
                    case kWait:
                      out.push_back(sampleRecord(
                          slots[t], "latency", "us", stats::Better::Lower,
                          row.waitUs,
                          cap.take(commscope::kWaitSampleChannel)));
                      break;
                    case kHostDeviceLatency:
                      out.push_back(sampleRecord(
                          slots[t], "latency", "us", stats::Better::Lower,
                          row.hostDeviceLatencyUs,
                          cap.take(commscope::kHdLatencySampleChannel)));
                      break;
                    case kHostDeviceBandwidth:
                      out.push_back(sampleRecord(
                          slots[t], "bandwidth", "GB/s", stats::Better::Higher,
                          row.hostDeviceBandwidthGBps,
                          cap.take(commscope::kHdBandwidthSampleChannel)));
                      break;
                    case kD2dLatency:
                      out.push_back(sampleRecord(
                          slots[t], "latency", "us", stats::Better::Lower,
                          *row.d2dLatencyUs[static_cast<int>(task.linkClass)],
                          cap.take(commscope::kD2dLatencySampleChannel)));
                      break;
                    default:
                      break;
                  }
                });
      },
      opt.jobs);
  throwIfCancelled(opt);
  collectIncidents(std::move(slots), incidents);
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
    t.addRow({rankName(*row.machine),
              naOr(cellFailed(incidents, name, kCellLaunch),
                   row.launchUs.toString()),
              naOr(cellFailed(incidents, name, kCellWait),
                   row.waitUs.toString()),
              naOr(cellFailed(incidents, name, kCellHdLatency),
                   row.hostDeviceLatencyUs.toString()),
              naOr(cellFailed(incidents, name, kCellHdBandwidth),
                   row.hostDeviceBandwidthGBps.toString()),
              d2d(0), d2d(1), d2d(2), d2d(3)});
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
