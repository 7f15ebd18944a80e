/// \file fuzz_json.cpp
/// \brief Fuzz target for the fault-plan input boundary.
///
/// Build as a standalone fuzzer with
///   cmake -B build-fuzz -S . -DNODEBENCH_FUZZ=ON \
///         -DCMAKE_CXX_COMPILER=clang++
///   ./build-fuzz/tests/fuzz/nodebench_fuzz_json tests/fuzz/corpus/json
/// The same harness runs deterministically (corpus + seeded mutations,
/// no fuzzer runtime) inside ctest via fuzz_smoke_test.cpp.

#include "fuzz_targets.hpp"

#include <string>

#include "core/error.hpp"
#include "core/json_value.hpp"
#include "faults/fault_plan.hpp"

namespace nodebench::fuzz {

int runJsonOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  // Layer 1: the raw JSON reader.
  try {
    (void)JsonValue::parse(text);
  } catch (const Error&) {
    // Structured rejection is the expected outcome for most inputs.
  }
  // Layer 2: the semantic plan loader (spec validation on top of JSON).
  try {
    (void)faults::FaultPlan::fromJson(text);
  } catch (const Error&) {
  }
  return 0;
}

}  // namespace nodebench::fuzz

#ifdef NODEBENCH_FUZZ_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return nodebench::fuzz::runJsonOneInput(data, size);
}
#endif
