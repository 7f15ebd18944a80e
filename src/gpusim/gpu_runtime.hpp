#pragma once
/// \file gpu_runtime.hpp
/// \brief Simulated GPU runtime with CUDA/HIP-shaped semantics.
///
/// The runtime models exactly the cost structure Comm|Scope measures:
///  - `launchKernel` returns after the host-side launch overhead; the
///    kernel itself executes asynchronously on the stream
///    (Comm|Scope `Comm_cudart_kernel` measures the *launch*, not the
///    completion).
///  - `memcpyAsync` returns after the driver call overhead; the transfer
///    occupies the stream for DMA-setup + route latency + size/bandwidth
///    (+ a per-link-class residual for device-to-device copies).
///  - `streamSynchronize`/`deviceSynchronize` advance the host clock to
///    the stream drain point plus the machine's empty-queue wait cost
///    (Comm|Scope `Comm_cudaDeviceSynchronize`).
///
/// Streams are in-order FIFO engines with independent tails, which is
/// sufficient for every benchmark in the paper (no cross-stream events).
/// The runtime is deterministic; measurement noise is applied by the
/// benchmark drivers at the binary-run level (see DESIGN.md §4).

#include <vector>

#include "core/units.hpp"
#include "machines/machine.hpp"
#include "topo/topology.hpp"
#include "trace/trace.hpp"

namespace nodebench::gpusim {

/// A tracked allocation. Obtained from GpuRuntime::alloc*.
struct Buffer {
  enum class Space { HostPinned, Device };
  Space space = Space::HostPinned;
  int device = -1;  ///< Valid when space == Device.
  ByteCount size;
};

/// Opaque stream handle.
struct StreamId {
  int value = -1;
  friend constexpr bool operator==(StreamId, StreamId) = default;
};

/// Opaque event handle (cudaEvent_t analogue).
struct EventId {
  int value = -1;
  friend constexpr bool operator==(EventId, EventId) = default;
};

class GpuRuntime {
 public:
  /// Precondition: the machine is an accelerator system.
  explicit GpuRuntime(const machines::Machine& machine);

  [[nodiscard]] int deviceCount() const;

  /// Host wall clock of this runtime instance (starts at zero).
  [[nodiscard]] Duration hostNow() const { return hostClock_; }

  /// Resets host clock and all stream tails (between measurements).
  void reset();

  /// Advances the host clock (models host-side work between API calls).
  void hostAdvance(Duration dt);

  [[nodiscard]] Buffer allocPinnedHost(ByteCount size) const;
  /// Precondition: `size` fits in the device's memory.
  [[nodiscard]] Buffer allocDevice(int device, ByteCount size) const;

  /// Creates an in-order stream on `device`.
  [[nodiscard]] StreamId createStream(int device);

  /// Default (0th) stream of a device; created lazily.
  [[nodiscard]] StreamId defaultStream(int device);

  /// Enqueues a kernel of the given execution duration; the call consumes
  /// the machine's launch overhead on the host clock and returns.
  void launchKernel(StreamId stream, Duration kernelDuration);

  /// Enqueues an async copy on `stream`. Supported shapes: pinned-host ->
  /// device, device -> pinned-host, device -> device. The stream must
  /// belong to one of the participating devices.
  void memcpyAsync(StreamId stream, const Buffer& dst, const Buffer& src,
                   ByteCount bytes);

  /// Blocks (advances the host clock) until `stream` drains, plus the
  /// machine's synchronize wait cost.
  void streamSynchronize(StreamId stream);

  /// Blocks until every stream of `device` drains, plus the wait cost.
  void deviceSynchronize(int device);

  /// Records an event on `stream`: the event completes when all work
  /// enqueued before it has drained (cudaEventRecord semantics). The call
  /// itself is free on the host clock (sub-overhead noise is ignored).
  [[nodiscard]] EventId recordEvent(StreamId stream);

  /// Completion time of a recorded event.
  [[nodiscard]] Duration eventTime(EventId event) const;

  /// cudaEventElapsedTime analogue. Precondition: from recorded not after
  /// to (in stream order the result would be negative).
  [[nodiscard]] Duration eventElapsed(EventId from, EventId to) const;

  /// Blocks the host until the event completes (plus the machine's wait
  /// cost, as with the synchronize calls).
  void eventSynchronize(EventId event);

  /// cudaStreamWaitEvent analogue: subsequent work on `stream` starts no
  /// earlier than the event's completion. Free on the host clock.
  void streamWaitEvent(StreamId stream, EventId event);

  /// True when the stream has no pending work at the current host time.
  [[nodiscard]] bool streamQuery(StreamId stream) const;

  /// Completion time of the last enqueued operation (tests/diagnostics).
  [[nodiscard]] Duration streamTail(StreamId stream) const;

  [[nodiscard]] const machines::Machine& machine() const { return *machine_; }

 private:
  struct Stream {
    int device = -1;
    Duration tail = Duration::zero();
  };

  [[nodiscard]] Stream& at(StreamId id);
  [[nodiscard]] const Stream& at(StreamId id) const;
  /// Appends an op to the stream; returns the virtual time it starts
  /// (after prior stream work and the host clock) for trace events.
  Duration enqueue(StreamId id, Duration opDuration);

  /// Records a device-lane trace event (no-op when tracing is off).
  void emitDeviceEvent(trace::Category category, StreamId stream,
                       Duration begin, Duration duration,
                       std::uint64_t bytes);

  /// Transfer occupancy of a copy between the two buffers.
  [[nodiscard]] Duration transferDuration(const Buffer& dst,
                                          const Buffer& src,
                                          ByteCount bytes) const;

  const machines::Machine* machine_;
  std::vector<Stream> streams_;
  std::vector<int> defaultStreams_;  ///< Per device; -1 until created.
  std::vector<Duration> events_;     ///< Completion time per recorded event.
  Duration hostClock_ = Duration::zero();
  /// Trace buffer captured at construction (constructed on the tracing
  /// scope's thread); null when tracing is disabled. The device timeline
  /// restarts at zero after reset(), like the host clock.
  trace::TraceBuffer* traceSink_ = nullptr;
};

}  // namespace nodebench::gpusim
