#include "report/reports.hpp"

#include <array>
#include <utility>

#include "core/error.hpp"
#include "report/memlab_report.hpp"

namespace nodebench::report {

namespace {

/// Runs one compute function under the run's options and records its
/// incidents in the run.
template <typename Row>
MeasuredRows<Row> measure(
    ReportRun& run,
    std::vector<Row> (*compute)(const TableOptions&,
                                std::vector<CellIncident>*)) {
  MeasuredRows<Row> m;
  m.rows = compute(run.options(), &m.incidents);
  run.record(m.incidents);
  return m;
}

RenderedReport single(Table table,
                      std::vector<CellIncident> incidents = {}) {
  RenderedReport r;
  r.tables.push_back(std::move(table));
  r.incidents = std::move(incidents);
  return r;
}

RenderedReport table1(ReportRun& /*run*/) { return single(buildTable1()); }
RenderedReport table2(ReportRun& /*run*/) { return single(buildTable2()); }
RenderedReport table3(ReportRun& /*run*/) { return single(buildTable3()); }
RenderedReport table8(ReportRun& /*run*/) { return single(buildTable8()); }
RenderedReport table9(ReportRun& /*run*/) { return single(buildTable9()); }

RenderedReport table4(ReportRun& run) {
  MeasuredRows<Cpu4Row> m = measure(run, computeTable4);
  Table t = renderTable4(m.rows, &m.incidents);
  return single(std::move(t), std::move(m.incidents));
}

RenderedReport table5(ReportRun& run) {
  const MeasuredRows<Gpu5Row>& m = run.table5();
  return single(renderTable5(m.rows, &m.incidents), m.incidents);
}

RenderedReport table6(ReportRun& run) {
  const MeasuredRows<Gpu6Row>& m = run.table6();
  return single(renderTable6(m.rows, &m.incidents), m.incidents);
}

RenderedReport table7(ReportRun& run) {
  const MeasuredRows<Gpu5Row>& t5 = run.table5();
  const MeasuredRows<Gpu6Row>& t6 = run.table6();
  std::vector<CellIncident> incidents = t5.incidents;
  incidents.insert(incidents.end(), t6.incidents.begin(), t6.incidents.end());
  Table t = buildTable7(t5.rows, t6.rows, &incidents);
  return single(std::move(t), std::move(incidents));
}

RenderedReport sweep(ReportRun& run) {
  MeasuredRows<SweepRow> m = measure(run, computeSweep);
  RenderedReport r;
  r.tables.push_back(renderSweep(m.rows, &m.incidents));
  r.chart = renderSweepChart(m.rows);
  r.incidents = std::move(m.incidents);
  return r;
}

RenderedReport chase(ReportRun& run) {
  MeasuredRows<ChaseRow> m = measure(run, computeChase);
  RenderedReport r;
  r.tables.push_back(renderChaseNs(m.rows, &m.incidents));
  r.tables.push_back(renderChaseClk(m.rows, &m.incidents));
  r.chart = renderChaseChart(m.rows);
  r.incidents = std::move(m.incidents);
  return r;
}

/// Selector order; the first nine are the paper tables.
constexpr std::array<Report, 11> kReports = {{
    {"1", "table1_omp_combinations", table1},
    {"2", "table2_cpu_systems", table2},
    {"3", "table3_gpu_systems", table3},
    {"4", "table4_cpu_results", table4},
    {"5", "table5_gpu_results", table5},
    {"6", "table6_commscope_results", table6},
    {"7", "table7_accelerator_ranges", table7},
    {"8", "table8_cpu_software", table8},
    {"9", "table9_gpu_software", table9},
    {"sweep", "", sweep},
    {"chase", "", chase},
}};

}  // namespace

std::string RenderedReport::ascii() const {
  std::string out;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) {
      out += "\n";
    }
    out += tables[i].renderAscii();
  }
  if (!chart.empty()) {
    out += "\n" + chart;
  }
  return out;
}

std::span<const Report> paperTables() {
  return std::span<const Report>(kReports).first(9);
}

std::span<const Report> selectReports(std::string_view selector) {
  if (selector == "all") {
    return paperTables();
  }
  for (std::size_t i = 0; i < kReports.size(); ++i) {
    if (kReports[i].label == selector) {
      return std::span<const Report>(kReports).subspan(i, 1);
    }
  }
  throw Error("unknown table '" + std::string(selector) +
              "' (expected 1..9, all, sweep or chase)");
}

void ReportRun::record(const std::vector<CellIncident>& incidents) {
  incidents_.insert(incidents_.end(), incidents.begin(), incidents.end());
}

const MeasuredRows<Gpu5Row>& ReportRun::table5() {
  if (!table5_) {
    table5_ = measure(*this, computeTable5);
  }
  return *table5_;
}

const MeasuredRows<Gpu6Row>& ReportRun::table6() {
  if (!table6_) {
    table6_ = measure(*this, computeTable6);
  }
  return *table6_;
}

}  // namespace nodebench::report
