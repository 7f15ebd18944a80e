#pragma once
/// \file export.hpp
/// \brief Writes every reproduced table to disk (CSV and Markdown) — the
/// artifact-style output a downstream user would commit next to their
/// own measurements. Exposed on the CLI as `nodebench export --dir D`.

#include <filesystem>
#include <vector>

#include "report/tables.hpp"

namespace nodebench::report {

struct ExportManifest {
  std::vector<std::filesystem::path> written;
};

/// Renders Tables 1-9 in one report run (report/reports.hpp), plus the
/// machine-balance table, and writes `<dir>/<stem>.{csv,md,json}` under
/// each report's export stem, and `diagnostics.txt` when a cell retried
/// or failed. Creates `dir` if needed. Throws nodebench::Error on I/O
/// failure.
ExportManifest exportAllTables(const std::filesystem::path& dir,
                               const TableOptions& options);

/// Writes one table as CSV, Markdown and JSON under `dir` with the
/// given file stem; returns the three paths.
std::vector<std::filesystem::path> exportTable(
    const Table& table, const std::filesystem::path& dir,
    const std::string& stem);

}  // namespace nodebench::report
