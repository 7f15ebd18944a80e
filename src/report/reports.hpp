#pragma once
/// \file reports.hpp
/// \brief The report registry: one entry per `nodebench table` selector
/// (Tables 1-9 and the memlab families `sweep` and `chase`), and the run
/// object every caller renders them through.
///
/// This is the one place that decides what each selector measures. CLI
/// `table`, `faults` and `export`, every serve request, and the shard and
/// supervise workers (which exec `table`) all resolve their selectors
/// here and render inside one `ReportRun`. Within a run Tables 5 and 6
/// are measured at most once: Table 7, the per-accelerator digest of
/// both, reuses their rows when the run already has them and measures
/// them itself otherwise. So every incident appears once in the run's
/// diagnostics, and a traced run records each Table 5/6 cell once.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/table.hpp"
#include "report/tables.hpp"

namespace nodebench::report {

/// One rendered report: its tables in print order, plus an ascii chart
/// for the memlab families, plus the incidents of the cells it reads.
struct RenderedReport {
  std::vector<Table> tables;
  std::string chart;  ///< "" when the report has no chart.
  /// Incidents of the cells this report reads, in measurement order;
  /// Table 7's are Table 5's followed by Table 6's.
  std::vector<CellIncident> incidents;

  /// The tables joined by "\n", then "\n" + chart when there is a chart:
  /// what serve returns for the label, and what `nodebench table` prints
  /// before its trailing newline.
  [[nodiscard]] std::string ascii() const;
};

class ReportRun;

/// One registry entry.
struct Report {
  std::string_view label;  ///< Selector: "1".."9", "sweep" or "chase".
  /// File stem `export` writes the report's one table under; "" for the
  /// memlab families, which `export` does not write.
  std::string_view exportStem;
  /// Renders the report under the run's options, measuring through it.
  RenderedReport (*render)(ReportRun& run);
};

/// Tables 1..9 in order: what `table all` prints and `export` writes.
[[nodiscard]] std::span<const Report> paperTables();

/// Resolves one `table` selector by exact match: "all" selects
/// paperTables(), "1".."9", "sweep" and "chase" their one entry. Throws
/// Error naming the accepted selectors for anything else.
[[nodiscard]] std::span<const Report> selectReports(std::string_view selector);

/// Rows of one measured table with the incidents its cells produced.
template <typename Row>
struct MeasuredRows {
  std::vector<Row> rows;
  std::vector<CellIncident> incidents;
};

/// One campaign's rendering: a CLI `table` invocation, the `faults` demo,
/// an `export`, or a serve request. `options` must outlive the run.
class ReportRun {
 public:
  explicit ReportRun(const TableOptions& options) : options_(options) {}

  /// Every incident the run's measurements produced, each once, in
  /// measurement order: the diagnostics appendix.
  [[nodiscard]] const std::vector<CellIncident>& incidents() const {
    return incidents_;
  }

  // --- For the registry's render functions ---------------------------------
  [[nodiscard]] const TableOptions& options() const { return options_; }
  /// Appends one compute call's incidents to the run's list.
  void record(const std::vector<CellIncident>& incidents);
  /// Tables 5 and 6, measured on first use and reused for the rest of
  /// the run.
  [[nodiscard]] const MeasuredRows<Gpu5Row>& table5();
  [[nodiscard]] const MeasuredRows<Gpu6Row>& table6();

 private:
  const TableOptions& options_;
  std::vector<CellIncident> incidents_;
  std::optional<MeasuredRows<Gpu5Row>> table5_;
  std::optional<MeasuredRows<Gpu6Row>> table6_;
};

}  // namespace nodebench::report
