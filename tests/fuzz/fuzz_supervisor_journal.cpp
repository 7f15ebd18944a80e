/// \file fuzz_supervisor_journal.cpp
/// \brief Fuzz target for the supervisor-journal decoder.
///
/// SupervisorJournal::decode is the pure in-memory core of `supervise
/// --resume` and of `merge --supervisor-journal`: everything it reads is
/// untrusted bytes off disk. The decoder must either return a Decoded
/// (possibly with a torn-tail warning) or throw SupervisorJournalError —
/// never crash, hang, or over-allocate. Every field of the format is
/// fixed-width or length-prefixed, so a decoded valid prefix must also
/// re-encode to exactly its own bytes.
///
/// Build it as a standalone fuzzer like the others (clang with
/// -DNODEBENCH_FUZZ=ON, see fuzz_serve.cpp) and run
/// `nodebench_fuzz_supervisor_journal tests/fuzz/corpus/supervisor`.
/// The same harness runs deterministically (corpus + seeded mutations,
/// no fuzzer runtime) inside ctest via fuzz_smoke_test.cpp.

#include "fuzz_targets.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/error.hpp"
#include "supervise/journal.hpp"

namespace nodebench::fuzz {

int runSupervisorJournalOneInput(const std::uint8_t* data, std::size_t size) {
  try {
    const auto decoded = supervise::SupervisorJournal::decode({data, size});
    std::vector<std::uint8_t> encoded =
        supervise::SupervisorJournal::encodeHeader(decoded.config);
    for (const supervise::SupervisorEvent& event : decoded.events) {
      const auto frame = supervise::SupervisorJournal::encodeEvent(event);
      encoded.insert(encoded.end(), frame.begin(), frame.end());
    }
    // Abort under the fuzzer, test failure in the smoke suite.
    if (encoded.size() != decoded.validBytes ||
        !std::equal(encoded.begin(), encoded.end(), data)) {
      throw std::logic_error("decoded prefix does not re-encode to itself");
    }
  } catch (const Error&) {
    // SupervisorJournalError (or Error) is the structured rejection path.
  }
  return 0;
}

}  // namespace nodebench::fuzz

#ifdef NODEBENCH_FUZZ_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return nodebench::fuzz::runSupervisorJournalOneInput(data, size);
}
#endif
