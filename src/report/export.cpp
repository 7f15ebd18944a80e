#include "report/export.hpp"

#include <fstream>

#include "core/error.hpp"
#include "report/balance.hpp"
#include "report/reports.hpp"

namespace nodebench::report {

namespace {

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot open " + path.string() + " for writing");
  }
  out << text;
  // Close before checking: small files are written only by the final
  // flush, and its failure (ENOSPC) would otherwise go unreported.
  out.close();
  if (!out) {
    throw Error("failed writing " + path.string());
  }
}

}  // namespace

std::vector<std::filesystem::path> exportTable(
    const Table& table, const std::filesystem::path& dir,
    const std::string& stem) {
  NB_EXPECTS(!stem.empty());
  std::filesystem::create_directories(dir);
  const std::filesystem::path csv = dir / (stem + ".csv");
  const std::filesystem::path md = dir / (stem + ".md");
  const std::filesystem::path json = dir / (stem + ".json");
  writeFile(csv, table.renderCsv());
  writeFile(md, table.renderMarkdown());
  writeFile(json, table.renderJson());
  return {csv, md, json};
}

ExportManifest exportAllTables(const std::filesystem::path& dir,
                               const TableOptions& options) {
  ExportManifest manifest;
  const auto add = [&](const Table& t, std::string_view stem) {
    for (auto& path : exportTable(t, dir, std::string(stem))) {
      manifest.written.push_back(std::move(path));
    }
  };
  ReportRun run(options);
  for (const Report& report : paperTables()) {
    add(report.render(run).tables.front(), report.exportStem);
  }
  add(renderBalance(computeBalance()), "machine_balance");
  // Resilience diagnostics ride along only when something actually
  // retried or failed — a fault-free export stays byte-identical.
  const std::string diagnostics = renderDiagnostics(run.incidents());
  if (!diagnostics.empty()) {
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = dir / "diagnostics.txt";
    writeFile(path, diagnostics);
    manifest.written.push_back(path);
  }
  return manifest;
}

}  // namespace nodebench::report
