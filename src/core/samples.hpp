#pragma once
/// \file samples.hpp
/// \brief Thread-local raw-sample capture for the statistics subsystem.
///
/// The measurement loops aggregate their per-binary-run draws through
/// streaming Welford accumulators and discard the raw values — exactly
/// what the paper's mean ± sigma tables need, and exactly what the
/// regression-detection layer (src/stats) cannot work with: bootstrap
/// confidence intervals and rank tests need the full sample vector.
///
/// `SampleCapture` is the bridge. A harness that wants raw samples
/// installs a capture (RAII, one per thread) around a measurement;
/// the instrumented loops call `recordSample(channel, value)` next to
/// their `Welford::add`, which appends to the active capture on the
/// current thread and is a null-check no-op otherwise — an
/// uninstrumented run costs one thread-local load per sample and stays
/// byte-identical to the pre-capture harness.
///
/// Thread-locality is safe because of the parallel harness's nesting
/// contract (DESIGN.md §7): nested parallel sections run inline,
/// sequentially, on the same worker thread, so every sample a cell body
/// produces lands on the thread that installed the capture. Captures do
/// not nest: one cell body owns the thread's capture, and a measurement
/// that needs to know whether samples are wanted asks
/// activeSampleCapture() instead of installing its own.

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nodebench {

/// One active capture scope: samples recorded on this thread while it is
/// installed accumulate here, keyed by channel name.
class SampleCapture {
 public:
  /// Precondition: no capture is active on this thread.
  SampleCapture();
  ~SampleCapture();
  SampleCapture(const SampleCapture&) = delete;
  SampleCapture& operator=(const SampleCapture&) = delete;

  /// Appends one sample (called via recordSample()).
  void record(std::string_view channel, double value);

  /// Moves the channel's sample vector out (empty when the channel was
  /// never recorded); subsequent takes of the same channel are empty.
  [[nodiscard]] std::vector<double> take(std::string_view channel);


 private:
  std::map<std::string, std::vector<double>, std::less<>> channels_;
};

/// The capture active on this thread, or nullptr.
[[nodiscard]] SampleCapture* activeSampleCapture();

/// Appends `value` to the active capture's `channel`; no-op when no
/// capture is installed on this thread.
void recordSample(std::string_view channel, double value);

}  // namespace nodebench
