#include "report/memlab_report.hpp"

#include <cstdio>
#include <utility>

#include "babelstream/kernels.hpp"
#include "core/samples.hpp"
#include "machines/registry.hpp"
#include "report/ascii_chart.hpp"
#include "report/cell_runner.hpp"
#include "stats/store.hpp"

namespace nodebench::report {

using machines::Machine;

namespace {

using cellrun::cellFailed;
using cellrun::filteredMachines;
using cellrun::naOr;
using cellrun::runCell;
using cellrun::runGrid;
using cellrun::sampleRecord;
using cellrun::StoreRecords;

/// One (machine, grid point) cell of a memlab family; `point` indexes the
/// machine row's points.
struct PointTask {
  std::size_t machineIdx = 0;
  std::string cell;
  std::size_t point = 0;
};

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
  memlab::SweepConfig base;
  base.binaryRuns = opt.binaryRuns;
  const std::vector<ByteCount> grid = memlab::sweepGrid(base);
  // Every point carries its size before the fan-out, so a failed or
  // unmeasured point still renders on its own row.
  std::vector<SweepRow> rows(ms.size());
  std::vector<PointTask> tasks;
  tasks.reserve(ms.size() * grid.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    for (std::size_t j = 0; j < grid.size(); ++j) {
      rows[i].points.push_back({grid[j], grid[j] * 3ull, {}});
      tasks.push_back({i, sweepCellName(grid[j] * 3ull), j});
    }
  }
  runGrid(opt, "sweep", ms, tasks, incidents,
          [&](const Machine& m, const PointTask& task, CellIncident& slot) {
            memlab::SweepPoint& point = rows[task.machineIdx].points[task.point];
            if (const auto v = runCell(
                    opt, m, task.cell, slot,
                    [&](std::uint64_t salt) {
                      memlab::SweepConfig cfg = base;
                      cfg.seedSalt = salt;
                      return std::array{
                          memlab::measureSweepPoint(m, point.arrayBytes, cfg)
                              .bandwidthGBps};
                    },
                    [](SampleCapture& cap, const std::array<Summary, 1>& values,
                       StoreRecords& out) {
                      out.push_back(sampleRecord(
                          memlab::kSweepQuantity, "GB/s",
                          stats::Better::Higher, values[0],
                          cap.take(babelstream::streamOpName(
                              babelstream::StreamOp::Triad))));
                    })) {
              point.bandwidthGBps = (*v)[0];
            }
          });
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
  memlab::ChaseConfig base;
  base.binaryRuns = opt.binaryRuns;
  const std::vector<ByteCount> grid = memlab::chaseGrid(base);
  std::vector<ChaseRow> rows(ms.size());
  std::vector<PointTask> tasks;
  tasks.reserve(ms.size() * grid.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    for (std::size_t j = 0; j < grid.size(); ++j) {
      rows[i].points.push_back({grid[j], {}, {}});
      tasks.push_back({i, chaseCellName(grid[j]), j});
    }
  }
  runGrid(opt, "chase", ms, tasks, incidents,
          [&](const Machine& m, const PointTask& task, CellIncident& slot) {
            memlab::ChasePoint& point = rows[task.machineIdx].points[task.point];
            if (const auto v = runCell(
                    opt, m, task.cell, slot,
                    [&](std::uint64_t salt) {
                      memlab::ChaseConfig cfg = base;
                      cfg.seedSalt = salt;
                      const memlab::ChasePoint measured =
                          memlab::measureChasePoint(m, point.workingSet, cfg);
                      return std::array{measured.nsPerAccess, measured.clkPerOp};
                    },
                    [](SampleCapture& cap, const std::array<Summary, 2>& values,
                       StoreRecords& out) {
                      out.push_back(sampleRecord(
                          memlab::kChaseSampleChannel, "ns",
                          stats::Better::Lower, values[0],
                          cap.take(memlab::kChaseSampleChannel)));
                    })) {
              point.nsPerAccess = (*v)[0];
              point.clkPerOp = (*v)[1];
            }
          });
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
