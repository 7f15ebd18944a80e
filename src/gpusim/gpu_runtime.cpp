#include "gpusim/gpu_runtime.hpp"

namespace nodebench::gpusim {

using topo::GpuId;

GpuRuntime::GpuRuntime(const machines::Machine& machine)
    : machine_(&machine), traceSink_(trace::current()) {
  NB_EXPECTS_MSG(machine.accelerated() && machine.device.has_value(),
                 "GpuRuntime requires an accelerator machine");
  defaultStreams_.assign(static_cast<std::size_t>(deviceCount()), -1);
}

int GpuRuntime::deviceCount() const { return machine_->topology.gpuCount(); }

void GpuRuntime::reset() {
  hostClock_ = Duration::zero();
  for (Stream& s : streams_) {
    s.tail = Duration::zero();
  }
  events_.clear();
}

void GpuRuntime::hostAdvance(Duration dt) {
  NB_EXPECTS(dt >= Duration::zero());
  hostClock_ += dt;
}

Buffer GpuRuntime::allocPinnedHost(ByteCount size) const {
  NB_EXPECTS(size.count() > 0);
  return Buffer{Buffer::Space::HostPinned, -1, size};
}

Buffer GpuRuntime::allocDevice(int device, ByteCount size) const {
  NB_EXPECTS(device >= 0 && device < deviceCount());
  NB_EXPECTS(size.count() > 0);
  NB_EXPECTS_MSG(size <= machine_->topology.gpu(GpuId{device}).memory,
                 "allocation exceeds device memory");
  return Buffer{Buffer::Space::Device, device, size};
}

StreamId GpuRuntime::createStream(int device) {
  NB_EXPECTS(device >= 0 && device < deviceCount());
  streams_.push_back(Stream{device, Duration::zero()});
  return StreamId{static_cast<int>(streams_.size()) - 1};
}

StreamId GpuRuntime::defaultStream(int device) {
  NB_EXPECTS(device >= 0 && device < deviceCount());
  if (defaultStreams_[device] < 0) {
    defaultStreams_[device] = createStream(device).value;
  }
  return StreamId{defaultStreams_[device]};
}

GpuRuntime::Stream& GpuRuntime::at(StreamId id) {
  NB_EXPECTS(id.value >= 0 &&
             static_cast<std::size_t>(id.value) < streams_.size());
  return streams_[id.value];
}

const GpuRuntime::Stream& GpuRuntime::at(StreamId id) const {
  NB_EXPECTS(id.value >= 0 &&
             static_cast<std::size_t>(id.value) < streams_.size());
  return streams_[id.value];
}

Duration GpuRuntime::enqueue(StreamId id, Duration opDuration) {
  Stream& s = at(id);
  const Duration start = max(s.tail, hostClock_);
  s.tail = start + opDuration;
  return start;
}

void GpuRuntime::emitDeviceEvent(trace::Category category, StreamId stream,
                                 Duration begin, Duration duration,
                                 std::uint64_t bytes) {
  if (traceSink_ == nullptr) {
    return;
  }
  // peer carries the stream id so concurrent streams of one device stay
  // distinguishable in the exported trace.
  traceSink_->event(trace::Event{category, trace::ActorKind::Device,
                                 at(stream).device, stream.value, begin,
                                 duration, bytes});
}

void GpuRuntime::launchKernel(StreamId stream, Duration kernelDuration) {
  NB_EXPECTS(kernelDuration >= Duration::zero());
  // The launch overhead is host-side work; the kernel begins only after
  // the API call returns (or after prior stream work, whichever is later).
  hostClock_ += machine_->device->kernelLaunch;
  const Duration start = enqueue(stream, kernelDuration);
  emitDeviceEvent(trace::Category::KernelLaunch, stream, start,
                  kernelDuration, 0);
}

Duration GpuRuntime::transferDuration(const Buffer& dst, const Buffer& src,
                                      ByteCount bytes) const {
  const machines::DeviceParams& d = *machine_->device;
  const topo::NodeTopology& topo = machine_->topology;

  const bool srcDev = src.space == Buffer::Space::Device;
  const bool dstDev = dst.space == Buffer::Space::Device;
  NB_EXPECTS_MSG(srcDev || dstDev,
                 "host-to-host copies do not involve the GPU runtime");

  if (srcDev && dstDev) {
    if (src.device == dst.device) {
      // Intra-device copy: HBM to HBM at half the stream rate (read+write).
      return d.d2dDmaSetup +
             Duration::nanoseconds(2.0 * bytes.asDouble() /
                                   d.hbmBw.bytesPerNanosecond());
    }
    const GpuId a{src.device};
    const GpuId b{dst.device};
    const auto& route = topo.routeGpuToGpu(a, b);
    const auto linkClass = topo.gpuPairClass(a, b);
    return d.d2dDmaSetup + route.latency +
           route.bottleneck.transferTime(bytes) +
           d.d2dClassResidual[static_cast<int>(linkClass)];
  }

  // Pinned host <-> device: the benchmark pins memory on the device's
  // home socket, so the route is the single host link.
  const int device = srcDev ? src.device : dst.device;
  const GpuId g{device};
  const auto& link = topo.hostGpuLink(topo.gpu(g).socket, g);
  return d.h2dDmaSetup + link.latency + link.bandwidth.transferTime(bytes);
}

void GpuRuntime::memcpyAsync(StreamId stream, const Buffer& dst,
                             const Buffer& src, ByteCount bytes) {
  NB_EXPECTS(bytes.count() > 0);
  NB_EXPECTS(bytes <= src.size && bytes <= dst.size);
  const int streamDevice = at(stream).device;
  NB_EXPECTS_MSG(
      (src.space == Buffer::Space::Device && src.device == streamDevice) ||
          (dst.space == Buffer::Space::Device && dst.device == streamDevice),
      "stream must belong to a participating device");
  hostClock_ += machine_->device->memcpyCallOverhead;
  const Duration occupancy = transferDuration(dst, src, bytes);
  const Duration start = enqueue(stream, occupancy);
  emitDeviceEvent(trace::Category::Memcpy, stream, start, occupancy,
                  bytes.count());
}

void GpuRuntime::streamSynchronize(StreamId stream) {
  const Duration begin = hostClock_;
  hostClock_ = max(hostClock_, at(stream).tail) + machine_->device->syncWait;
  emitDeviceEvent(trace::Category::KernelSync, stream, begin,
                  hostClock_ - begin, 0);
}

void GpuRuntime::deviceSynchronize(int device) {
  NB_EXPECTS(device >= 0 && device < deviceCount());
  const Duration begin = hostClock_;
  Duration drain = hostClock_;
  for (const Stream& s : streams_) {
    if (s.device == device) {
      drain = max(drain, s.tail);
    }
  }
  hostClock_ = drain + machine_->device->syncWait;
  if (traceSink_ != nullptr) {
    traceSink_->event(trace::Event{trace::Category::KernelSync,
                                   trace::ActorKind::Device, device, -1,
                                   begin, hostClock_ - begin, 0});
  }
}

EventId GpuRuntime::recordEvent(StreamId stream) {
  // The event completes when everything already on the stream drains; if
  // the stream is idle it completes "now".
  const Duration completion = max(at(stream).tail, hostClock_);
  events_.push_back(completion);
  return EventId{static_cast<int>(events_.size()) - 1};
}

Duration GpuRuntime::eventTime(EventId event) const {
  NB_EXPECTS(event.value >= 0 &&
             static_cast<std::size_t>(event.value) < events_.size());
  return events_[event.value];
}

Duration GpuRuntime::eventElapsed(EventId from, EventId to) const {
  const Duration a = eventTime(from);
  const Duration b = eventTime(to);
  NB_EXPECTS_MSG(a <= b, "events out of order");
  return b - a;
}

void GpuRuntime::eventSynchronize(EventId event) {
  hostClock_ = max(hostClock_, eventTime(event)) + machine_->device->syncWait;
}

void GpuRuntime::streamWaitEvent(StreamId stream, EventId event) {
  Stream& s = at(stream);
  s.tail = max(s.tail, eventTime(event));
}

bool GpuRuntime::streamQuery(StreamId stream) const {
  return at(stream).tail <= hostClock_;
}

Duration GpuRuntime::streamTail(StreamId stream) const {
  return at(stream).tail;
}

}  // namespace nodebench::gpusim
