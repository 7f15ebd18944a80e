/// \file trace_golden_test.cpp
/// \brief Golden traced output of Tables 4, 5 and 6: an in-process run
/// under a `trace::Session` at 5 binary runs and one worker must export
/// the same bytes as the build that wrote the golden files.
///
/// TraceDeterminism compares two runs of the same build, so a change that
/// records fewer events on both sides would pass it. This suite compares
/// against output fixed in the tree instead: the metrics summary as
/// checked-in text (it carries every per-scope event count, busy time and
/// counter, e.g. the 200 per-run `cache miss` events of a host-bandwidth
/// scope and the 2002 `vt.switches` of a latency scope), and the Chrome
/// JSON, which runs to megabytes, by byte count and CRC32. A failure here
/// means traced runs no longer record what earlier builds recorded; an
/// intended change of the trace content regenerates the golden values in
/// the same change and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>

#include "core/checksum.hpp"
#include "report/tables.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

#ifndef NODEBENCH_TRACE_GOLDEN_DIR
#error "build system must define NODEBENCH_TRACE_GOLDEN_DIR"
#endif

namespace nodebench {
namespace {

struct Export {
  std::string json;
  std::string metrics;
};

Export traced(const std::function<void(const report::TableOptions&)>& table) {
  trace::Session session;
  report::TableOptions opt;
  opt.binaryRuns = 5;
  opt.jobs = 1;
  table(opt);
  return Export{trace::chromeJson(session), trace::metricsSummary(session)};
}

std::string readGolden(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(NODEBENCH_TRACE_GOLDEN_DIR) / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::uint32_t crcOf(const std::string& text) {
  return crc32(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size()));
}

void expectGolden(const Export& e, const std::string& metricsFile,
                  std::size_t jsonBytes, std::uint32_t jsonCrc) {
  EXPECT_EQ(e.metrics, readGolden(metricsFile));
  EXPECT_EQ(e.json.size(), jsonBytes);
  EXPECT_EQ(crcOf(e.json), jsonCrc);
}

TEST(TraceGolden, Table4MatchesGoldenBytes) {
  const Export e = traced(
      [](const report::TableOptions& o) { (void)report::computeTable4(o); });
  expectGolden(e, "table4_metrics.txt", 6741416u, 0xd1496affu);
}

TEST(TraceGolden, Table5MatchesGoldenBytes) {
  const Export e = traced(
      [](const report::TableOptions& o) { (void)report::computeTable5(o); });
  expectGolden(e, "table5_metrics.txt", 18682015u, 0x3f33a7efu);
}

TEST(TraceGolden, Table6MatchesGoldenBytes) {
  const Export e = traced(
      [](const report::TableOptions& o) { (void)report::computeTable6(o); });
  expectGolden(e, "table6_metrics.txt", 22089u, 0x7960477cu);
}

}  // namespace
}  // namespace nodebench
