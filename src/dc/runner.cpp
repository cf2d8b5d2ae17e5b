#include "dc/runner.hpp"

#include <algorithm>
#include <utility>

#include "sim/thread_pool.hpp"

namespace ntserv::dc {

FleetRunner::FleetRunner(FleetConfig config) : config_(std::move(config)) {
  config_.validate();
}

ShardPlan FleetRunner::plan(const RunOptions& options) const {
  const int auto_width =
      options.threads > 0 ? options.threads : sim::ThreadPool::default_threads();
  const int shards = options.shards > 0 ? options.shards
                                        : std::min(auto_width, config_.servers);
  return ShardPlan::make(config_.servers, shards, config_.seed);
}

FleetResult FleetRunner::run(const RunOptions& options) const {
  // A fresh engine per run: runs are independent, identically-seeded
  // experiments, so run() is repeatable and const.
  ClusterFleet fleet{config_, options.threads};
  if (options.telemetry != nullptr) fleet.set_telemetry(options.telemetry);
  return fleet.run(plan(options), options.threads);
}

}  // namespace ntserv::dc
