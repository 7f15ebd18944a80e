#pragma once
/// \file paper_reference.hpp
/// \brief The paper's published measurements (Tables 4-7), used by the
/// golden tests and by the bench harnesses' "paper vs measured" columns.
///
/// Values transcribed from Siefert et al., "Latency and Bandwidth
/// Microbenchmarks of US DOE Systems in the June 2023 Top500 List",
/// SC-W 2023, Tables 4, 5 and 6.

#include <array>
#include <optional>
#include <string_view>

namespace nodebench::report::paper {

/// mean ± sd pair as printed in the paper.
struct Value {
  double mean = 0.0;
  double sd = 0.0;
};

/// Table 4 row (non-accelerator systems).
struct Cpu4Ref {
  std::string_view name;
  Value singleGBps;
  Value allGBps;
  Value onSocketUs;
  Value onNodeUs;
};

/// Table 5 row (accelerator systems).
struct Gpu5Ref {
  std::string_view name;
  Value deviceGBps;
  Value hostToHostUs;
  std::array<std::optional<Value>, 4> d2dUs;  ///< classes A..D
};

/// Table 6 row (Comm|Scope).
struct Gpu6Ref {
  std::string_view name;
  Value launchUs;
  Value waitUs;
  Value hostDeviceLatencyUs;
  Value hostDeviceBandwidthGBps;
  std::array<std::optional<Value>, 4> d2dUs;  ///< classes A..D
};

[[nodiscard]] const std::array<Cpu4Ref, 5>& table4();
[[nodiscard]] const std::array<Gpu5Ref, 8>& table5();
[[nodiscard]] const std::array<Gpu6Ref, 8>& table6();

/// Looks up a row by machine name; throws NotFoundError when absent.
[[nodiscard]] const Gpu5Ref& table5Row(std::string_view name);
[[nodiscard]] const Gpu6Ref& table6Row(std::string_view name);

}  // namespace nodebench::report::paper
