#include "babelstream/sim_omp_backend.hpp"

namespace nodebench::babelstream {

SimOmpBackend::SimOmpBackend(const machines::Machine& machine,
                             const ompenv::OmpConfig& config)
    : model_(machine),
      config_(config),
      placement_(ompenv::place(machine.topology, config)) {}

std::string SimOmpBackend::name() const {
  return "omp-sim(" + config_.toString() + ")";
}

Duration SimOmpBackend::iterationTime(StreamOp op, ByteCount arrayBytes) {
  NB_EXPECTS(arrayBytes.count() > 0);
  const auto actual = ByteCount::bytes(static_cast<std::uint64_t>(
      actualFactor(op) * arrayBytes.asDouble()));
  const auto workingSet = ByteCount::bytes(
      static_cast<std::uint64_t>(arraysTouched(op)) * arrayBytes.count());
  return model_.transferTime(actual, workingSet, placement_);
}

double SimOmpBackend::noiseCv() const {
  const machines::HostMemoryParams& p = model_.machine().hostMemory;
  return placement_.threadCount() == 1 ? p.cvSingle : p.cvAll;
}

}  // namespace nodebench::babelstream
