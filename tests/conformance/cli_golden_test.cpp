/// \file cli_golden_test.cpp
/// \brief Golden output of the `nodebench` binary at 5 binary runs and
/// one worker: the stdout of `table {4,5,6,7,sweep,chase,all}`, of
/// `table all` and the `faults` demo under the demo fault plan, and for
/// `export` its stdout plus a name, size and CRC32 manifest of the 30
/// files it writes.
///
/// PaperConformance and TablesGolden check the measured cells against the
/// paper within tolerances; this suite checks the rendered text against
/// files in golden/, byte for byte. A failure means a command no longer
/// prints what earlier builds printed — a table measured twice, an
/// incident listed twice, a changed column. An intended change of the
/// output regenerates the golden file in the same change and says why.
/// tests/serve/server_test.cpp checks serve replies against the same
/// files.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <set>
#include <span>
#include <sstream>
#include <string>

#include "core/checksum.hpp"

#ifndef NODEBENCH_CLI
#error "build system must define NODEBENCH_CLI"
#endif
#ifndef NODEBENCH_CLI_GOLDEN_DIR
#error "build system must define NODEBENCH_CLI_GOLDEN_DIR"
#endif
#ifndef NODEBENCH_EXAMPLES_DIR
#error "build system must define NODEBENCH_EXAMPLES_DIR"
#endif

namespace nodebench {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string golden(const std::string& name) {
  return slurp(fs::path(NODEBENCH_CLI_GOLDEN_DIR) / name);
}

/// Runs `nodebench <args>` through the shell (from `dir` when given) and
/// returns its stdout; the command must exit 0.
std::string nodebench(const std::string& args, const fs::path& dir = {}) {
  std::string command = "'" NODEBENCH_CLI "' " + args;
  if (!dir.empty()) {
    command = "cd '" + dir.string() + "' && " + command;
  }
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << command << " exited with status " << status;
  return out;
}

void expectTableGolden(const std::string& selector) {
  EXPECT_EQ(nodebench("table " + selector + " --runs 5 --jobs 1"),
            golden("table_" + selector + ".txt"));
}

TEST(CliGolden, Table4) { expectTableGolden("4"); }
TEST(CliGolden, Table5) { expectTableGolden("5"); }
TEST(CliGolden, Table6) { expectTableGolden("6"); }
TEST(CliGolden, Table7) { expectTableGolden("7"); }
TEST(CliGolden, Sweep) { expectTableGolden("sweep"); }
TEST(CliGolden, Chase) { expectTableGolden("chase"); }
TEST(CliGolden, TableAll) { expectTableGolden("all"); }

TEST(CliGolden, FaultsDemo) {
  EXPECT_EQ(nodebench("faults '" NODEBENCH_EXAMPLES_DIR
                      "/fault_plan_demo.json' --runs 5 --jobs 1"),
            golden("faults_demo.txt"));
}

// Table 7 digests the Table 5/6 rows `table all` already measured, so
// each Perlmutter H<->D incident of the demo plan is listed once. (Builds
// that measured Tables 5 and 6 again for Table 7 listed them twice.)
TEST(CliGolden, TableAllUnderDemoFaultPlan) {
  EXPECT_EQ(nodebench("table all --faults '" NODEBENCH_EXAMPLES_DIR
                      "/fault_plan_demo.json' --runs 5 --jobs 1"),
            golden("table_all_faults.txt"));
}

TEST(CliGolden, ExportStdoutAndFileManifest) {
  const fs::path dir =
      fs::temp_directory_path() / "nodebench-cli-golden-export";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_EQ(nodebench("export --dir nbexport --runs 5 --jobs 1", dir),
            golden("export_stdout.txt"));
  // "<name> <bytes> <crc32>" per written file, sorted by name.
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir / "nbexport")) {
    names.insert(entry.path().filename().string());
  }
  std::ostringstream manifest;
  for (const std::string& name : names) {
    const std::string bytes = slurp(dir / "nbexport" / name);
    manifest << name << ' ' << bytes.size() << ' ' << std::hex
             << std::setw(8) << std::setfill('0')
             << crc32(std::span(
                    reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size()))
             << std::dec << '\n';
  }
  EXPECT_EQ(names.size(), 30u);
  EXPECT_EQ(manifest.str(), golden("export_manifest.txt"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nodebench
