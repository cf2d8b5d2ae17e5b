#include "dc/runner.hpp"

#include <utility>

namespace ntserv::dc {

FleetRunner::FleetRunner(FleetConfig config) : config_(std::move(config)) {
  config_.validate();
}

FleetResult FleetRunner::run(const RunOptions& options) const {
  // A fresh engine per run: runs are independent, identically-seeded
  // experiments, so run() is repeatable and const.
  ClusterFleet fleet{config_, options.threads};
  if (options.telemetry != nullptr) fleet.set_telemetry(options.telemetry);
  return fleet.run(options.threads);
}

}  // namespace ntserv::dc
