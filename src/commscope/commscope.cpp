#include "commscope/commscope.hpp"

#include "core/samples.hpp"

namespace nodebench::commscope {

using gpusim::Buffer;
using gpusim::StreamId;
using topo::GpuId;
using topo::LinkClass;

CommScope::CommScope(const machines::Machine& machine) : runtime_(machine) {
  NB_EXPECTS(runtime_.deviceCount() >= 1);
}

Duration CommScope::truthKernelLaunch() {
  runtime_.reset();
  const StreamId stream = runtime_.defaultStream(0);
  const Duration start = runtime_.hostNow();
  runtime_.launchKernel(stream, Duration::zero());  // empty zero-arg kernel
  return runtime_.hostNow() - start;  // launch only: no synchronize
}

Duration CommScope::truthSyncWait() {
  runtime_.reset();
  const Duration start = runtime_.hostNow();
  runtime_.deviceSynchronize(0);  // empty work queue
  return runtime_.hostNow() - start;
}

Duration CommScope::truthHostDeviceTime(ByteCount bytes) {
  const Buffer host = runtime_.allocPinnedHost(bytes);
  const Buffer dev = runtime_.allocDevice(0, bytes);
  const StreamId stream = runtime_.defaultStream(0);

  runtime_.reset();
  Duration start = runtime_.hostNow();
  runtime_.memcpyAsync(stream, dev, host, bytes);  // PinnedToGPU
  runtime_.streamSynchronize(stream);
  const Duration h2d = runtime_.hostNow() - start;

  runtime_.reset();
  start = runtime_.hostNow();
  runtime_.memcpyAsync(stream, host, dev, bytes);  // GPUToPinned
  runtime_.streamSynchronize(stream);
  const Duration d2h = runtime_.hostNow() - start;

  return (h2d + d2h) * 0.5;  // the paper averages the two directions
}

Duration CommScope::truthD2dTime(LinkClass linkClass, ByteCount bytes) {
  const auto pair = runtime_.machine().topology.representativePair(linkClass);
  NB_EXPECTS_MSG(pair.has_value(), "machine lacks the requested link class");
  const Buffer src = runtime_.allocDevice(pair->first.value, bytes);
  const Buffer dst = runtime_.allocDevice(pair->second.value, bytes);
  const StreamId stream = runtime_.defaultStream(pair->first.value);

  runtime_.reset();
  const Duration start = runtime_.hostNow();
  runtime_.memcpyAsync(stream, dst, src, bytes);
  runtime_.streamSynchronize(stream);
  return runtime_.hostNow() - start;
}

Summary CommScope::aggregate(double truthUs, double cv, const Config& config,
                             std::uint64_t streamSalt,
                             const char* channel) const {
  NB_EXPECTS(config.binaryRuns > 0);
  const NoiseModel noise(cv);
  Welford acc;
  for (int run = 0; run < config.binaryRuns; ++run) {
    Xoshiro256 rng(config.seed + runtime_.machine().seed + streamSalt +
                   0x9e3779b9u * static_cast<std::uint64_t>(run));
    const double value = truthUs * noise.sampleFactor(rng);
    acc.add(value);
    recordSample(channel, value);
  }
  return acc.summary();
}

Summary CommScope::kernelLaunchUs(const Config& config) {
  return aggregate(truthKernelLaunch().us(),
                   runtime_.machine().device->cvLaunch, config, 0x11,
                   kLaunchSampleChannel);
}

Summary CommScope::syncWaitUs(const Config& config) {
  return aggregate(truthSyncWait().us(), runtime_.machine().device->cvWait,
                   config, 0x22, kWaitSampleChannel);
}

Summary CommScope::hostDeviceLatencyUs(const Config& config) {
  return aggregate(truthHostDeviceTime(config.latencyProbe).us(),
                   runtime_.machine().device->cvXferLat, config, 0x33,
                   kHdLatencySampleChannel);
}

Summary CommScope::hostDeviceBandwidthGBps(const Config& config) {
  const Duration t = truthHostDeviceTime(config.bandwidthProbe);
  const double gbps = config.bandwidthProbe.asDouble() / t.ns();
  return aggregate(gbps, runtime_.machine().device->cvXferBw, config, 0x44,
                   kHdBandwidthSampleChannel);
}

Summary CommScope::d2dLatencyUs(LinkClass linkClass, const Config& config) {
  return aggregate(truthD2dTime(linkClass, config.latencyProbe).us(),
                   runtime_.machine().device->cvD2D, config,
                   0x55 + static_cast<std::uint64_t>(linkClass),
                   kD2dLatencySampleChannel);
}

Summary CommScope::d2dBandwidthGBps(LinkClass linkClass,
                                    const Config& config) {
  const Duration t = truthD2dTime(linkClass, config.bandwidthProbe);
  const double gbps = config.bandwidthProbe.asDouble() / t.ns();
  return aggregate(gbps, runtime_.machine().device->cvXferBw, config,
                   0x66 + static_cast<std::uint64_t>(linkClass),
                   kD2dBandwidthSampleChannel);
}

MachineResults CommScope::measureAll(const Config& config) {
  MachineResults out;
  out.launchUs = kernelLaunchUs(config);
  out.waitUs = syncWaitUs(config);
  out.hostDeviceLatencyUs = hostDeviceLatencyUs(config);
  out.hostDeviceBandwidthGBps = hostDeviceBandwidthGBps(config);
  for (const LinkClass c :
       runtime_.machine().topology.presentGpuLinkClasses()) {
    out.d2dLatencyUs[static_cast<int>(c)] = d2dLatencyUs(c, config);
  }
  return out;
}

}  // namespace nodebench::commscope
