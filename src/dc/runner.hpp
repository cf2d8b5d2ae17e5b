// The fleet-run entry point: validate a config, plan shards, run.
//
// A FleetConfig (dc/fleet.hpp) is plain data — fleet shape, control
// knobs, and the tenant table that describes all traffic — and is built
// by assigning its fields, or taken from a named dc::Scenario
// (dc/scenario.hpp), which is a FleetConfig with a name:
//
//   FleetConfig cfg;
//   cfg.profile = workload::WorkloadProfile::web_search();
//   cfg.servers = 64;
//   cfg.tenants[0].arrival = {.kind = ArrivalKind::kDiurnal, .rate = 4e6};
//   cfg.tenants[0].requests = 1'000'000;
//   FleetRunner runner{cfg};          // validates once
//   FleetResult r = runner.run({.telemetry = &t, .shards = 8});
//
// FleetRunner::run() constructs a fresh engine per call, so every run is
// an independent, identically-seeded experiment: sharded and serial
// execution share this one entry point, and RunOptions carries the
// telemetry. Results and telemetry are bit-identical for any
// shards/threads choice (see fleet.hpp's sharded-data-plane contract).
#pragma once

#include "dc/fleet.hpp"
#include "obs/obs.hpp"

namespace ntserv::dc {

/// Per-run options (a RunSession in all but name — the run owns them for
/// its duration). Everything here defaults to the serial, untelemetered
/// run; nothing mutates the FleetRunner.
struct RunOptions {
  /// Observability bundle (trace/metrics/timers); only enabled
  /// components are wired. Replaces the ClusterFleet::set_telemetry
  /// side channel. Must outlive the run() call.
  obs::Telemetry* telemetry = nullptr;
  /// Shard count for the intra-run data plane: it caps the workers that
  /// run busy chips in each lookahead window. 0 = auto:
  /// min(sim::ThreadPool::default_threads(), servers). 1 = serial. Any
  /// value yields bit-identical results.
  int shards = 0;
  /// Worker threads running the busy chips. 0 = auto
  /// (sim::ThreadPool::default_threads(), i.e. NTSERV_THREADS). Also
  /// bounds the parallel chip-construction fan-out. Bit-identical for
  /// any value. Callers already inside a sweep worker should pass 1.
  int threads = 0;
};

/// One entry point for serial and sharded fleet execution:
/// config validation -> shard plan -> run -> FleetResult.
///
/// The runner owns only the (validated) config; each run() constructs a
/// fresh ClusterFleet, so runs are independent and repeatable — calling
/// run() twice with the same options yields byte-identical results and
/// telemetry.
class FleetRunner {
 public:
  /// Validates the config once, up front (throws ModelError).
  explicit FleetRunner(FleetConfig config);

  /// The shard plan run(options) will execute — exposed so callers and
  /// tests can inspect the partition (deterministic in (config, options)).
  [[nodiscard]] ShardPlan plan(const RunOptions& options = {}) const;

  /// Execute one run under `options`. Bit-identical results and
  /// telemetry for any shards/threads combination.
  [[nodiscard]] FleetResult run(const RunOptions& options = {}) const;

 private:
  FleetConfig config_;
};

}  // namespace ntserv::dc
