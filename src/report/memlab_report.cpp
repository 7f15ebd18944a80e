#include "report/memlab_report.hpp"

#include <cstdio>
#include <utility>

#include "babelstream/kernels.hpp"
#include "campaign/shard.hpp"
#include "core/parallel.hpp"
#include "core/samples.hpp"
#include "machines/registry.hpp"
#include "report/ascii_chart.hpp"
#include "report/cell_runner.hpp"
#include "stats/store.hpp"

namespace nodebench::report {

using machines::Machine;

namespace {

using cellrun::cellFailed;
using cellrun::collectIncidents;
using cellrun::filteredMachines;
using cellrun::MeasuredMachines;
using cellrun::naOr;
using cellrun::runCell;
using cellrun::sampleRecord;
using cellrun::StoreRecords;
using cellrun::throwIfCancelled;

std::vector<const Machine*> allMachinePtrs() {
  std::vector<const Machine*> out;
  for (const Machine& m : machines::allMachines()) {
    out.push_back(&m);
  }
  return out;
}

/// "48 KiB" / "3 MiB" label for the comparison-table rows; exact bytes
/// when not a whole binary multiple (the grids only produce whole ones).
std::string sizeLabel(ByteCount b) {
  const std::uint64_t n = b.count();
  if (n % (1024ull * 1024ull) == 0) {
    return std::to_string(n / (1024ull * 1024ull)) + " MiB";
  }
  if (n % 1024ull == 0) {
    return std::to_string(n / 1024ull) + " KiB";
  }
  return std::to_string(n) + " B";
}

std::string fmt(double v, const char* spec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

/// Comparison table shared by the three renderers: rows = grid sizes,
/// columns = machines, failed cells degraded to "n/a".
template <typename Row, typename Value>
Table comparisonTable(const std::vector<Row>& rows, const char* title,
                      const std::vector<CellIncident>* incidents,
                      std::string (*cellName)(ByteCount), Value&& value) {
  std::vector<std::string> headers{"Working set"};
  for (const Row& row : rows) {
    headers.push_back(row.machine->info.name);
  }
  Table t(headers);
  t.setTitle(title);
  t.setAlign(0, Align::Left);
  const std::size_t points = rows.empty() ? 0 : rows.front().points.size();
  for (std::size_t j = 0; j < points; ++j) {
    std::vector<std::string> cells{sizeLabel(rows.front().points[j].workingSet)};
    for (const Row& row : rows) {
      const bool failed =
          cellFailed(incidents, row.machine->info.name,
                     cellName(row.points[j].workingSet));
      cells.push_back(naOr(failed, value(row.points[j])));
    }
    t.addRow(std::move(cells));
  }
  return t;
}

/// One log-log chart series per machine with a complete positive curve
/// (failed cells leave zero-mean points that a log axis cannot place).
template <typename Row, typename Value>
std::string ladderChart(const std::vector<Row>& rows, const char* yLabel,
                        Value&& value) {
  if (rows.empty() || rows.front().points.size() < 2) {
    return {};
  }
  std::vector<double> xs;
  for (const auto& p : rows.front().points) {
    xs.push_back(p.workingSet.asDouble());
  }
  std::vector<Series> series;
  for (const Row& row : rows) {
    Series s{row.machine->info.name, {}};
    bool ok = row.points.size() == xs.size();
    for (const auto& p : row.points) {
      const double y = value(p);
      ok = ok && y > 0.0;
      s.y.push_back(y);
    }
    if (ok) {
      series.push_back(std::move(s));
    }
  }
  if (series.empty()) {
    return {};
  }
  ChartOptions opt;
  opt.logX = true;
  opt.logY = true;
  opt.xLabel = "working set (bytes)";
  opt.yLabel = yLabel;
  return renderChart(xs, series, opt);
}

}  // namespace

std::string sweepCellName(ByteCount workingSet) {
  return "ws " + std::to_string(workingSet.count());
}

std::string chaseCellName(ByteCount workingSet) {
  return "chase " + std::to_string(workingSet.count());
}

std::vector<SweepRow> computeSweep(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(allMachinePtrs(), opt);
  const MeasuredMachines measured(ms, opt.faults);
  memlab::SweepConfig base;
  base.binaryRuns = opt.binaryRuns;
  const std::vector<ByteCount> grid = memlab::sweepGrid(base);
  std::vector<SweepRow> rows(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    rows[i].points.resize(grid.size());
  }
  if (opt.shard != nullptr) {
    std::vector<campaign::GridCell> cells;
    cells.reserve(ms.size() * grid.size());
    for (const Machine* m : ms) {
      for (const ByteCount size : grid) {
        cells.push_back({m->info.name, sweepCellName(size * 3ull)});
      }
    }
    opt.shard->registerTable("sweep", std::move(cells), opt.journal);
  }
  std::vector<CellIncident> slots(ms.size() * grid.size());
  par::parallelForEach(
      slots.size(),
      [&](std::size_t task) {
        const std::size_t mi = task / grid.size();
        const std::size_t j = task % grid.size();
        const Machine& m = measured.at(ms, mi);
        memlab::SweepPoint& point = rows[mi].points[j];
        runCell(opt, m, sweepCellName(grid[j] * 3ull), slots[task],
                [&](std::uint64_t salt) {
                  memlab::SweepConfig cfg = base;
                  cfg.seedSalt = salt;
                  point = memlab::measureSweepPoint(m, grid[j], cfg);
                },
                [&](campaign::PayloadWriter& w) {
                  campaign::putSummary(w, point.bandwidthGBps);
                },
                [&](campaign::PayloadReader& r) {
                  point = memlab::SweepPoint{grid[j], grid[j] * 3ull,
                                             campaign::readSummary(r)};
                },
                [&](SampleCapture& cap, StoreRecords& out) {
                  out.push_back(sampleRecord(
                      slots[task], memlab::kSweepQuantity, "GB/s",
                      stats::Better::Higher, point.bandwidthGBps,
                      cap.take(std::string(babelstream::streamOpName(
                          babelstream::StreamOp::Triad)))));
                });
      },
      opt.jobs);
  throwIfCancelled(opt);
  collectIncidents(std::move(slots), incidents);
  return rows;
}

Table renderSweep(const std::vector<SweepRow>& rows,
                  const std::vector<CellIncident>* incidents) {
  return comparisonTable(
      rows,
      "Working-set sweep: BabelStream triad bandwidth (GB/s, bound full team)",
      incidents, sweepCellName, [](const memlab::SweepPoint& p) {
        return fmt(p.bandwidthGBps.mean, "%.1f");
      });
}

std::string renderSweepChart(const std::vector<SweepRow>& rows) {
  return ladderChart(rows, "GB/s", [](const memlab::SweepPoint& p) {
    return p.bandwidthGBps.mean;
  });
}

std::vector<ChaseRow> computeChase(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = filteredMachines(allMachinePtrs(), opt);
  const MeasuredMachines measured(ms, opt.faults);
  memlab::ChaseConfig base;
  base.binaryRuns = opt.binaryRuns;
  const std::vector<ByteCount> grid = memlab::chaseGrid(base);
  std::vector<ChaseRow> rows(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    rows[i].points.resize(grid.size());
  }
  if (opt.shard != nullptr) {
    std::vector<campaign::GridCell> cells;
    cells.reserve(ms.size() * grid.size());
    for (const Machine* m : ms) {
      for (const ByteCount size : grid) {
        cells.push_back({m->info.name, chaseCellName(size)});
      }
    }
    opt.shard->registerTable("chase", std::move(cells), opt.journal);
  }
  std::vector<CellIncident> slots(ms.size() * grid.size());
  par::parallelForEach(
      slots.size(),
      [&](std::size_t task) {
        const std::size_t mi = task / grid.size();
        const std::size_t j = task % grid.size();
        const Machine& m = measured.at(ms, mi);
        memlab::ChasePoint& point = rows[mi].points[j];
        runCell(opt, m, chaseCellName(grid[j]), slots[task],
                [&](std::uint64_t salt) {
                  memlab::ChaseConfig cfg = base;
                  cfg.seedSalt = salt;
                  point = memlab::measureChasePoint(m, grid[j], cfg);
                },
                [&](campaign::PayloadWriter& w) {
                  campaign::putSummary(w, point.nsPerAccess);
                  campaign::putSummary(w, point.clkPerOp);
                },
                [&](campaign::PayloadReader& r) {
                  point.workingSet = grid[j];
                  point.nsPerAccess = campaign::readSummary(r);
                  point.clkPerOp = campaign::readSummary(r);
                },
                [&](SampleCapture& cap, StoreRecords& out) {
                  out.push_back(sampleRecord(
                      slots[task], memlab::kChaseSampleChannel, "ns",
                      stats::Better::Lower, point.nsPerAccess,
                      cap.take(memlab::kChaseSampleChannel)));
                });
      },
      opt.jobs);
  throwIfCancelled(opt);
  collectIncidents(std::move(slots), incidents);
  return rows;
}

Table renderChaseNs(const std::vector<ChaseRow>& rows,
                    const std::vector<CellIncident>* incidents) {
  return comparisonTable(
      rows,
      "Pointer chase: dependent-load latency (ns per access, one pinned core)",
      incidents, chaseCellName, [](const memlab::ChasePoint& p) {
        return fmt(p.nsPerAccess.mean, "%.2f");
      });
}

Table renderChaseClk(const std::vector<ChaseRow>& rows,
                     const std::vector<CellIncident>* incidents) {
  return comparisonTable(
      rows, "Pointer chase: dependent-load latency (core clocks per access)",
      incidents, chaseCellName, [](const memlab::ChasePoint& p) {
        return fmt(p.clkPerOp.mean, "%.1f");
      });
}

std::string renderChaseChart(const std::vector<ChaseRow>& rows) {
  return ladderChart(rows, "ns/access", [](const memlab::ChasePoint& p) {
    return p.nsPerAccess.mean;
  });
}

}  // namespace nodebench::report
