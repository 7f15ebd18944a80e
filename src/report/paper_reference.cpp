#include "report/paper_reference.hpp"

#include <string>

#include "core/error.hpp"

namespace nodebench::report::paper {

namespace {
constexpr std::optional<Value> none = std::nullopt;
}

const std::array<Cpu4Ref, 5>& table4() {
  static const std::array<Cpu4Ref, 5> rows{{
      {"Trinity", {12.36, 0.16}, {347.28, 5.76}, {0.67, 0.01}, {0.99, 0.01}},
      {"Theta", {18.76, 0.58}, {119.72, 0.54}, {5.95, 0.01}, {6.25, 0.05}},
      {"Sawtooth", {13.06, 0.35}, {238.70, 8.39}, {0.48, 0.01}, {0.48, 0.01}},
      {"Eagle", {13.45, 0.03}, {208.24, 0.92}, {0.17, 0.00}, {0.38, 0.01}},
      {"Manzano", {15.27, 0.05}, {234.86, 0.12}, {0.32, 0.00}, {0.56, 0.01}},
  }};
  return rows;
}

const std::array<Gpu5Ref, 8>& table5() {
  static const std::array<Gpu5Ref, 8> rows{{
      {"Frontier",
       {1336.35, 1.11},
       {0.45, 0.01},
       {Value{0.44, 0.00}, Value{0.44, 0.00}, Value{0.44, 0.00},
        Value{0.44, 0.00}}},
      {"Summit",
       {786.43, 0.11},
       {0.34, 0.07},
       {Value{18.10, 0.22}, Value{19.30, 0.15}, none, none}},
      {"Sierra",
       {861.40, 0.65},
       {0.38, 0.01},
       {Value{18.72, 0.12}, Value{19.76, 0.37}, none, none}},
      {"Perlmutter",
       {1363.74, 0.23},
       {0.46, 0.06},
       {Value{13.50, 0.13}, none, none, none}},
      {"Polaris",
       {1362.75, 0.17},
       {0.21, 0.00},
       {Value{10.42, 0.03}, none, none, none}},
      {"Lassen",
       {861.03, 0.53},
       {0.37, 0.00},
       {Value{18.68, 0.20}, Value{19.72, 0.13}, none, none}},
      {"RZVernal",
       {1291.38, 0.77},
       {0.49, 0.00},
       {Value{0.50, 0.01}, Value{0.50, 0.01}, Value{0.50, 0.00},
        Value{0.49, 0.01}}},
      {"Tioga",
       {1336.81, 0.97},
       {0.49, 0.00},
       {Value{0.50, 0.00}, Value{0.50, 0.00}, Value{0.50, 0.00},
        Value{0.49, 0.01}}},
  }};
  return rows;
}

const std::array<Gpu6Ref, 8>& table6() {
  static const std::array<Gpu6Ref, 8> rows{{
      {"Frontier",
       {1.51, 0.00},
       {0.14, 0.00},
       {12.91, 0.02},
       {24.87, 0.01},
       {Value{12.02, 0.05}, Value{12.56, 0.03}, Value{12.68, 0.02},
        Value{12.02, 0.10}}},
      {"Summit",
       {4.84, 0.01},
       {4.31, 0.01},
       {7.82, 0.07},
       {44.88, 0.00},
       {Value{24.97, 0.16}, Value{27.44, 0.14}, none, none}},
      {"Sierra",
       {4.13, 0.01},
       {5.59, 0.02},
       {7.27, 0.23},
       {63.40, 0.01},
       {Value{23.91, 0.16}, Value{27.70, 0.12}, none, none}},
      {"Perlmutter",
       {1.77, 0.01},
       {0.98, 0.00},
       {4.24, 0.01},
       {24.74, 0.00},
       {Value{14.74, 0.41}, none, none, none}},
      {"Polaris",
       {1.83, 0.00},
       {1.32, 0.01},
       {5.33, 0.02},
       {23.71, 0.00},
       {Value{32.84, 0.30}, none, none, none}},
      {"Lassen",
       {4.56, 0.00},
       {5.52, 0.01},
       {7.76, 0.32},
       {63.34, 0.02},
       {Value{24.56, 0.28}, Value{27.69, 0.10}, none, none}},
      {"RZVernal",
       {2.16, 0.01},
       {0.12, 0.00},
       {12.20, 0.07},
       {24.88, 0.00},
       {Value{9.85, 0.01}, Value{12.58, 0.00}, Value{12.45, 0.02},
        Value{10.21, 0.01}}},
      {"Tioga",
       {2.15, 0.01},
       {0.12, 0.00},
       {12.19, 0.04},
       {24.88, 0.00},
       {Value{9.85, 0.02}, Value{12.59, 0.01}, Value{12.46, 0.01},
        Value{10.12, 0.02}}},
  }};
  return rows;
}

namespace {

template <typename Rows>
const auto& findRow(const Rows& rows, std::string_view name,
                    const char* table) {
  for (const auto& row : rows) {
    if (row.name == name) {
      return row;
    }
  }
  throw NotFoundError(std::string("no ") + table + " reference row for " +
                      std::string(name));
}

}  // namespace

const Gpu5Ref& table5Row(std::string_view name) {
  return findRow(table5(), name, "Table 5");
}
const Gpu6Ref& table6Row(std::string_view name) {
  return findRow(table6(), name, "Table 6");
}

}  // namespace nodebench::report::paper
