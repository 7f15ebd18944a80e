#pragma once
/// \file sim_omp_backend.hpp
/// \brief BabelStream's OpenMP backend over the simulated host memory
/// model, parameterized by the OpenMP environment (Table 1 rows).

#include "babelstream/backend.hpp"
#include "machines/machine.hpp"
#include "memsim/host_memory_model.hpp"
#include "ompenv/omp_config.hpp"
#include "ompenv/placement.hpp"

namespace nodebench::babelstream {

class SimOmpBackend final : public Backend {
 public:
  /// The machine must outlive the backend.
  SimOmpBackend(const machines::Machine& machine,
                const ompenv::OmpConfig& config);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Duration iterationTime(StreamOp op,
                                       ByteCount arrayBytes) override;
  [[nodiscard]] double noiseCv() const override;
  [[nodiscard]] bool deterministicTruth() const override { return true; }

  [[nodiscard]] const ompenv::ThreadPlacement& placement() const {
    return placement_;
  }

 private:
  memsim::HostMemoryModel model_;
  ompenv::OmpConfig config_;
  ompenv::ThreadPlacement placement_;
};

}  // namespace nodebench::babelstream
