// The fleet-run entry point: validate a config, run it on a worker count.
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
//   FleetResult r = runner.run({.telemetry = &t, .threads = 8});
//
// FleetRunner::run() constructs a fresh engine per call, so every run is
// an independent, identically-seeded experiment: serial and parallel
// execution share this one entry point, and RunOptions carries the
// telemetry and the worker count. Results and telemetry are bit-identical
// for any worker count (see fleet.hpp's lookahead-window contract).
#pragma once

#include "dc/fleet.hpp"
#include "obs/obs.hpp"

namespace ntserv::dc {

/// Per-run options (a RunSession in all but name — the run owns them for
/// its duration). Nothing here mutates the FleetRunner.
struct RunOptions {
  /// Observability bundle (trace/metrics/timers); only enabled
  /// components are wired. Replaces the ClusterFleet::set_telemetry
  /// side channel. Must outlive the run() call.
  obs::Telemetry* telemetry = nullptr;
  /// Workers for the parallel chip warm-up and for the busy chips of each
  /// lookahead window, capped at min(threads, servers). 0 =
  /// NTSERV_THREADS (sim::resolve_threads); 1 = serial. Bit-identical for
  /// any value. Callers already inside a sweep worker should pass 1.
  int threads = 0;
};

/// One entry point for serial and parallel fleet execution:
/// config validation -> run -> FleetResult.
///
/// The runner owns only the (validated) config; each run() constructs a
/// fresh ClusterFleet, so runs are independent and repeatable — calling
/// run() twice with the same options yields byte-identical results and
/// telemetry.
class FleetRunner {
 public:
  /// Validates the config once, up front (throws ModelError).
  explicit FleetRunner(FleetConfig config);

  /// Execute one run under `options`. Bit-identical results and
  /// telemetry for any worker count.
  [[nodiscard]] FleetResult run(const RunOptions& options = {}) const;

 private:
  FleetConfig config_;
};

}  // namespace ntserv::dc
