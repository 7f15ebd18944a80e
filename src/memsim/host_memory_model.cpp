#include "memsim/host_memory_model.hpp"

#include <cmath>

namespace nodebench::memsim {

Bandwidth HostMemoryModel::achievableBandwidth(
    const ompenv::ThreadPlacement& placement, ByteCount workingSet) const {
  NB_EXPECTS(!placement.threads().empty());
  const machines::HostMemoryParams& p = machine_->hostMemory;

  const int cores = placement.coresUsed();
  const int domains = placement.numaDomainsUsed();
  const int sockets = placement.socketsUsed();
  const int smtOccupancy = placement.maxSmtOccupancy();

  const Bandwidth corePortion = p.perCoreBw * static_cast<double>(cores);
  const Bandwidth saturation =
      p.perNumaSaturation * static_cast<double>(domains);
  double bw = min(corePortion, saturation).inGBps();

  if (smtOccupancy > 1) {
    bw *= p.smtFactor;
  }
  if (!placement.bound()) {
    bw *= placement.threadCount() == 1 ? p.unboundSingleFactor
                                       : p.unboundFactor;
  }

  bw /= p.cacheModeOverhead;
  const double plateau = bw;  ///< DRAM-saturated value, pre-knee.

  // Smooth cache knee: full boost deep inside the LLC, none far outside.
  const double llc =
      p.llcPerSocket.asDouble() * static_cast<double>(sockets);
  if (llc > 0.0 && workingSet.count() > 0) {
    const double ratio = workingSet.asDouble() / llc;
    const double boost =
        1.0 + (p.cacheBandwidthBoost - 1.0) / (1.0 + std::pow(ratio, 6.0));
    bw *= boost;
    if (traceSink_ != nullptr) {
      // Instant events (no memory clock exists): whether this working
      // set fits the LLC — the knee the BabelStream size sweep shows.
      const bool hit = ratio < 1.0;
      traceSink_->event(trace::Event{
          hit ? trace::Category::CacheHit : trace::Category::CacheMiss,
          trace::ActorKind::Node, 0, -1, Duration::zero(), Duration::zero(),
          workingSet.count()});
      traceSink_->count(hit ? "memsim.llc_hits" : "memsim.llc_misses");
    }

    // Cache-ladder refinement. The legacy knee above is the outermost
    // rung, kept bit-exact: every paper table is calibrated through it.
    // Inner levels of the explicit hierarchy multiply in extra gain when
    // the working set fits them, telescoping level-over-level so the
    // small-size limit approaches the innermost level's aggregate
    // bandwidth. Two invariants keep large-size results byte-identical:
    //  - a level only participates when its effective capacity is below
    //    the legacy LLC size (the knee already models everything at or
    //    beyond it) and its aggregate bandwidth beats the running outer
    //    reference, and
    //  - the rescaled knee k(r) is cut off hard at r = 4: for working
    //    sets at least 4x a level's effective capacity the factor is
    //    *exactly* 1.0 and the multiply is skipped, so table-sized
    //    working sets never touch `bw`'s bits.
    const auto& ladder = machine_->cacheHierarchy.levels;
    double reference = plateau * p.cacheBandwidthBoost;
    constexpr double kCutoffRatio = 4.0;
    const double kAtCutoff = 1.0 / (1.0 + std::pow(kCutoffRatio, 6.0));
    for (std::size_t i = ladder.size(); i-- > 0;) {
      const machines::CacheLevel& level = ladder[i];
      const double instances =
          std::ceil(static_cast<double>(cores) /
                    static_cast<double>(level.sharedByCores));
      const double effective = level.capacity.asDouble() * instances;
      if (effective <= 0.0 || effective >= llc) {
        continue;
      }
      const double aggregate =
          level.perCoreBandwidth.inGBps() * static_cast<double>(cores);
      if (aggregate <= reference) {
        continue;
      }
      const double r = workingSet.asDouble() / effective;
      if (r < kCutoffRatio) {
        const double k = 1.0 / (1.0 + std::pow(r, 6.0));
        const double weight = (k - kAtCutoff) / (1.0 - kAtCutoff);
        bw *= 1.0 + (aggregate / reference - 1.0) * weight;
        if (traceSink_ != nullptr) {
          traceSink_->count("memsim.cache_ladder_boosts");
        }
      }
      reference = aggregate;
    }
  }
  return Bandwidth::gbps(bw);
}

Duration HostMemoryModel::transferTime(
    ByteCount actualTraffic, ByteCount workingSet,
    const ompenv::ThreadPlacement& placement) const {
  NB_EXPECTS(actualTraffic.count() > 0);
  return achievableBandwidth(placement, workingSet)
      .transferTime(actualTraffic);
}

}  // namespace nodebench::memsim
