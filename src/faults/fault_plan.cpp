#include "faults/fault_plan.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/json_value.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"
#include "topo/topology.hpp"

namespace nodebench::faults {

namespace {

/// NoiseModel requires cv < 0.5; an OS-noise storm saturates there
/// instead of violating the contract.
constexpr double kMaxCv = 0.49;

/// FNV-1a over the lower-cased string: stable identity hashing for
/// machine and cell names (never security-relevant).
std::uint64_t stableHash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    const char lower =
        (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    h ^= static_cast<unsigned char>(lower);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Canonical selector of one topology link ("host-gpu0", "gpu0-gpu1",
/// "socket0-socket1"); GPU/socket pairs are ordered low-high so the
/// selector is direction-independent.
std::string linkSelector(const topo::Link& link) {
  using Kind = topo::Link::EndpointKind;
  const auto name = [](const topo::Link::Endpoint& e) {
    return (e.kind == Kind::Socket ? "socket" : "gpu") + std::to_string(e.id);
  };
  if (link.a.kind == Kind::Socket && link.b.kind == Kind::Gpu) {
    return "host-gpu" + std::to_string(link.b.id);
  }
  if (link.a.kind == Kind::Gpu && link.b.kind == Kind::Socket) {
    return "host-gpu" + std::to_string(link.a.id);
  }
  const topo::Link::Endpoint& lo = link.a.id <= link.b.id ? link.a : link.b;
  const topo::Link::Endpoint& hi = link.a.id <= link.b.id ? link.b : link.a;
  return name(lo) + "-" + name(hi);
}

bool linkMatches(const topo::Link& link, std::string_view selector) {
  return selector == "all" || iequals(linkSelector(link), selector);
}

double uniform01(std::uint64_t seed) {
  SplitMix64 sm(seed);
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

FaultType faultTypeFromName(std::string_view name) {
  if (iequals(name, "link-kill")) return FaultType::LinkKill;
  if (iequals(name, "link-degrade")) return FaultType::LinkDegrade;
  if (iequals(name, "os-noise")) return FaultType::OsNoise;
  if (iequals(name, "packet-loss")) return FaultType::PacketLoss;
  if (iequals(name, "nic-brownout")) return FaultType::NicBrownout;
  if (iequals(name, "gpu-downclock")) return FaultType::GpuDownclock;
  if (iequals(name, "gpu-ecc-stall")) return FaultType::GpuEccStall;
  if (iequals(name, "flaky-cell")) return FaultType::FlakyCell;
  throw Error("unknown fault type '" + std::string(name) + "'");
}

}  // namespace

std::string_view faultTypeName(FaultType t) {
  switch (t) {
    case FaultType::LinkKill: return "link-kill";
    case FaultType::LinkDegrade: return "link-degrade";
    case FaultType::OsNoise: return "os-noise";
    case FaultType::PacketLoss: return "packet-loss";
    case FaultType::NicBrownout: return "nic-brownout";
    case FaultType::GpuDownclock: return "gpu-downclock";
    case FaultType::GpuEccStall: return "gpu-ecc-stall";
    case FaultType::FlakyCell: return "flaky-cell";
  }
  return "?";
}

bool FaultSpec::appliesTo(std::string_view machineName) const {
  return iequals(machine, "all") || iequals(machine, machineName);
}

machines::Machine FaultPlan::applyToMachine(const machines::Machine& m) const {
  machines::Machine out = m;
  for (const FaultSpec& f : faults) {
    if (!f.appliesTo(m.info.name)) {
      continue;
    }
    switch (f.type) {
      case FaultType::LinkKill:
      case FaultType::LinkDegrade: {
        const auto& links = out.topology.links();
        for (std::size_t i = 0; i < links.size(); ++i) {
          if (!linkMatches(links[i], f.link)) {
            continue;
          }
          if (f.type == FaultType::LinkKill) {
            out.topology.setLinkFailed(i);
          } else {
            out.topology.degradeLink(i, f.bandwidthFactor, f.addedLatency);
          }
        }
        break;
      }
      case FaultType::OsNoise:
        out.hostMemory.cvSingle =
            std::min(out.hostMemory.cvSingle * f.cvFactor, kMaxCv);
        out.hostMemory.cvAll =
            std::min(out.hostMemory.cvAll * f.cvFactor, kMaxCv);
        out.hostMpi.cv = std::min(out.hostMpi.cv * f.cvFactor, kMaxCv);
        out.hostMpi.softwareOverhead =
            out.hostMpi.softwareOverhead * f.slowdown;
        break;
      case FaultType::GpuDownclock:
        if (out.device) {
          out.device->hbmBw = out.device->hbmBw * f.bandwidthFactor;
          out.device->kernelLaunch = out.device->kernelLaunch * f.slowdown;
          out.device->syncWait = out.device->syncWait * f.slowdown;
        }
        break;
      case FaultType::GpuEccStall:
        if (out.device) {
          // Scrub episodes stall the command queue: everything that waits
          // on the device pays the added latency.
          out.device->syncWait += f.addedLatency;
          out.device->memcpyCallOverhead += f.addedLatency;
        }
        break;
      case FaultType::PacketLoss:
      case FaultType::NicBrownout:
      case FaultType::FlakyCell:
        break;  // network / harness level, not machine parameters
    }
  }
  return out;
}

void FaultPlan::applyToNetwork(std::string_view machineName,
                               mpisim::InterNodeParams& network) const {
  for (const FaultSpec& f : faults) {
    if (!f.appliesTo(machineName)) {
      continue;
    }
    switch (f.type) {
      case FaultType::PacketLoss:
        // Independent loss processes compose: survive all of them.
        network.packetLossRate =
            1.0 - (1.0 - network.packetLossRate) * (1.0 - f.rate);
        break;
      case FaultType::NicBrownout:
        network.injectionBandwidth =
            network.injectionBandwidth * f.bandwidthFactor;
        network.nicOverhead += f.addedLatency;
        break;
      default:
        break;
    }
  }
  network.faultSeed = seed ^ stableHash(machineName);
}

bool FaultPlan::shouldFailAttempt(std::string_view machineName,
                                  std::string_view cell, int attempt) const {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultSpec& f = faults[i];
    if (f.type != FaultType::FlakyCell || f.rate <= 0.0 ||
        !f.appliesTo(machineName)) {
      continue;
    }
    const std::uint64_t draw =
        seed ^ (0x9e3779b97f4a7c15ull * (i + 1)) ^ stableHash(machineName) ^
        (stableHash(cell) << 1) ^
        (0xd1b54a32d192ed03ull * static_cast<std::uint64_t>(attempt + 1));
    if (uniform01(draw) < f.rate) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::touches(std::string_view machineName) const {
  return std::any_of(faults.begin(), faults.end(), [&](const FaultSpec& f) {
    return f.appliesTo(machineName);
  });
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  out << "fault plan (seed " << seed << ", " << faults.size()
      << (faults.size() == 1 ? " fault" : " faults") << ")\n";
  for (const FaultSpec& f : faults) {
    out << "  - " << faultTypeName(f.type) << " on " << f.machine;
    switch (f.type) {
      case FaultType::LinkKill:
        out << ", link " << f.link;
        break;
      case FaultType::LinkDegrade:
        out << ", link " << f.link << ", bandwidth x" << f.bandwidthFactor
            << ", +" << f.addedLatency.us() << " us";
        break;
      case FaultType::OsNoise:
        out << ", cv x" << f.cvFactor << ", overhead x" << f.slowdown;
        break;
      case FaultType::PacketLoss:
        out << ", rate " << f.rate;
        break;
      case FaultType::NicBrownout:
        out << ", injection x" << f.bandwidthFactor << ", +"
            << f.addedLatency.us() << " us";
        break;
      case FaultType::GpuDownclock:
        out << ", hbm x" << f.bandwidthFactor << ", kernel path x"
            << f.slowdown;
        break;
      case FaultType::GpuEccStall:
        out << ", +" << f.addedLatency.us() << " us per device wait";
        break;
      case FaultType::FlakyCell:
        out << ", rate " << f.rate;
        break;
    }
    out << "\n";
  }
  return out.str();
}

FaultPlan FaultPlan::fromJson(std::string_view text) {
  return fromJsonValue(JsonValue::parse(text));
}

FaultPlan FaultPlan::fromJsonValue(const JsonValue& doc) {
  if (!doc.isObject()) {
    throw Error("fault plan must be a JSON object");
  }
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(doc.numberOr("seed", 0.0));
  const JsonValue* faults = doc.find("faults");
  if (faults == nullptr) {
    return plan;
  }
  for (const JsonValue& entry : faults->asArray()) {
    if (!entry.isObject()) {
      throw Error("each fault must be a JSON object");
    }
    const JsonValue* type = entry.find("type");
    if (type == nullptr) {
      throw Error("fault entry is missing \"type\"");
    }
    FaultSpec spec;
    spec.type = faultTypeFromName(type->asString());
    spec.machine = entry.stringOr("machine", "all");
    spec.link = entry.stringOr("link", "all");
    spec.bandwidthFactor = entry.numberOr("bandwidth_factor", 1.0);
    spec.addedLatency =
        Duration::microseconds(entry.numberOr("added_latency_us", 0.0));
    spec.cvFactor = entry.numberOr("cv_factor", 1.0);
    spec.slowdown = entry.numberOr("slowdown", 1.0);
    spec.rate = entry.numberOr("rate", 0.0);
    if (spec.bandwidthFactor <= 0.0) {
      throw Error("bandwidth_factor must be > 0");
    }
    if (spec.cvFactor < 0.0) {
      throw Error("cv_factor must be >= 0");
    }
    if (spec.slowdown <= 0.0) {
      throw Error("slowdown must be > 0");
    }
    if (spec.rate < 0.0 || spec.rate >= 1.0) {
      throw Error("rate must be in [0, 1)");
    }
    if (spec.addedLatency < Duration::zero()) {
      throw Error("added_latency_us must be >= 0");
    }
    plan.faults.push_back(std::move(spec));
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open fault plan file: " + path);
  }
  // Read at most the parser's document cap plus one byte: pointing the
  // loader at a huge (or unbounded, e.g. /dev/zero) file must fail fast
  // instead of buffering it all before the parser can object.
  constexpr std::size_t kMaxPlanBytes = 1u << 20;
  std::string text(kMaxPlanBytes + 1, '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  if (text.size() > kMaxPlanBytes) {
    throw Error("fault plan file " + path + " exceeds the " +
                std::to_string(kMaxPlanBytes) + "-byte limit");
  }
  return fromJson(text);
}

}  // namespace nodebench::faults
