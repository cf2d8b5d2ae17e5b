// Named serving scenarios: the catalog the figure drivers and DSE sweeps
// fan out over.
//
// A Scenario is a FleetConfig with a name and a description — workload
// profile, tenant table, balancing policy, fleet shape, operating
// frequency and control knobs — so running one is running its config:
// run_scenario(s) is FleetRunner{s}.run(). Keeping scenarios declarative
// means every new arrival×policy×fleet combination is one registry entry,
// and the sweep drivers (dse::sweep_*, bench/fig*) pick them up by name,
// edit a copy per run (frequency, governor, chip count, ...) and fan the
// copies out through run_scenarios.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dc/fleet.hpp"
#include "dc/runner.hpp"

namespace ntserv::dc {

struct Scenario : FleetConfig {
  std::string name;
  std::string description;

  /// This scenario's config at frequency `f`. Kept only because
  /// perfbench/driver.cpp calls it; in-tree code slices the scenario
  /// (a Scenario is a FleetConfig) or sets `frequency` on a copy.
  [[nodiscard]] FleetConfig fleet_config(Hertz f) const;

  /// The dedicated-fleet split of a consolidated scenario: tenant `t`
  /// alone on an identically shaped fleet (the consolidation studies'
  /// baseline). Throws unless the scenario has two or more tenants.
  [[nodiscard]] Scenario dedicated(std::size_t t) const;

  /// The full scenario catalog (see docs/datacenter.md for the tour).
  static std::vector<Scenario> registry();

  /// Look up a catalog scenario by name; throws ModelError if unknown.
  static Scenario by_name(const std::string& name);
};

/// Arrival rate that loads a fleet to `load` (fraction of nominal service
/// capacity) at the 2 GHz baseline, given the per-request instruction
/// budget. Uses a nominal per-core user-IPC; the *measured* utilization of
/// a run is reported in FleetResult, this is only for sizing scenarios.
[[nodiscard]] double rate_for_load(double load, int servers, int cores_per_server,
                                   std::uint64_t user_instructions_per_request);

/// Run one scenario at its own frequency: FleetRunner{scenario}.run(options).
/// The default options run serially (one worker): scenario runs usually
/// ride inside a sweep-level fan-out (run_scenarios) that already owns the
/// cores. Pass RunOptions to attach telemetry or run the data plane on
/// more workers; results and telemetry are bit-identical for any
/// options.threads.
[[nodiscard]] FleetResult run_scenario(const Scenario& scenario,
                                       const RunOptions& options = RunOptions{.threads = 1});

/// Static exporter context (chip/core/tenant names) for writing a
/// scenario's trace with obs::write_chrome_trace.
[[nodiscard]] obs::TraceMeta trace_meta(const Scenario& scenario);

/// Run many scenarios, each serially at its own frequency, fanning them
/// out over `threads` workers (0 = NTSERV_THREADS); results are in
/// scenario order. The one fan-out for whole fleet runs: every dse fleet
/// sweep builds its vector of scenario variants and calls this. Each
/// scenario is an independent seed-derived simulation, so results are
/// bit-identical for any thread count.
[[nodiscard]] std::vector<FleetResult> run_scenarios(const std::vector<Scenario>& scenarios,
                                                     int threads = 0);

}  // namespace ntserv::dc
