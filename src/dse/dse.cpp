#include "dse/dse.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "sim/thread_pool.hpp"

namespace ntserv::dse {

namespace {

// Satellite of the availability work: a truncated run hit its cycle cap,
// so every downstream metric (tails, energy, violation counts) is partial.
// Sweeps used to fold such runs in silently; now each one is flagged on
// stderr (after the parallel section, so the order is deterministic) and
// the figure drivers mark the row.
void warn_truncated(const char* sweep_kind, const std::string& scenario,
                    const std::string& run, const dc::FleetResult& result) {
  if (!result.truncated) return;
  std::fprintf(stderr,
               "[ntserv::dse] warning: %s sweep of '%s': run %s truncated at "
               "its cycle cap — reported metrics are partial\n",
               sweep_kind, scenario.c_str(), run.c_str());
}

/// The body both sweep_faults overloads share: run 0 is the healthy
/// reference (faults stripped, first arm applied), runs 1..N are the
/// arms on the shared fault trace. `apply(s, arm)` edits one run's
/// scenario for its arm; `kind` labels the truncation warnings.
template <typename Arm, typename Apply>
FaultSweep run_fault_arms(const dc::Scenario& scenario, const std::vector<Arm>& arms,
                          int threads, const char* kind, Apply apply) {
  NTSERV_EXPECTS(scenario.faults.any(),
                 "fault sweep needs a scenario with a fault schedule");
  std::vector<dc::Scenario> runs(arms.size() + 1, scenario);
  runs[0].faults = fault::FaultConfig{};
  apply(runs[0], arms.front());
  for (std::size_t a = 0; a < arms.size(); ++a) apply(runs[a + 1], arms[a]);
  std::vector<dc::FleetResult> results = dc::run_scenarios(runs, threads);

  FaultSweep sweep;
  sweep.scenario = scenario.name;
  sweep.workload = scenario.profile.name;
  sweep.healthy = std::move(results[0]);
  for (std::size_t a = 0; a < arms.size(); ++a) {
    sweep.points.push_back({arms[a].label, std::move(results[a + 1])});
  }
  warn_truncated(kind, sweep.scenario, "healthy reference", sweep.healthy);
  for (const auto& p : sweep.points) {
    warn_truncated(kind, sweep.scenario, "arm '" + p.label + "'", p.result);
  }
  return sweep;
}

}  // namespace

const char* to_string(Scope s) {
  switch (s) {
    case Scope::kCores: return "cores";
    case Scope::kSoc: return "SoC";
    case Scope::kServer: return "server";
  }
  return "unknown";
}

double SweepResult::efficiency(std::size_t i, Scope s) const {
  const auto& p = points.at(i);
  switch (s) {
    case Scope::kCores: return p.eff_cores;
    case Scope::kSoc: return p.eff_soc;
    case Scope::kServer: return p.eff_server;
  }
  return 0.0;
}

std::size_t SweepResult::optimal_index(Scope s) const {
  NTSERV_EXPECTS(!points.empty(), "empty sweep");
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (efficiency(i, s) > efficiency(best, s)) best = i;
  }
  return best;
}

Hertz SweepResult::optimal_frequency(Scope s) const {
  return points[optimal_index(s)].frequency;
}

std::vector<qos::UipsSample> SweepResult::uips_samples() const {
  std::vector<qos::UipsSample> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back({p.frequency, p.uips});
  return out;
}

double SweepResult::baseline_uips() const {
  NTSERV_EXPECTS(!points.empty(), "empty sweep");
  const auto it = std::max_element(
      points.begin(), points.end(),
      [](const auto& a, const auto& b) { return a.frequency < b.frequency; });
  return it->uips;
}

SweepResult ExplorationDriver::sweep(const workload::WorkloadProfile& profile,
                                     const std::vector<Hertz>& grid, int threads) const {
  sim::ServerSimulator simulator{profile, platform_, config_};
  SweepResult r;
  r.workload = profile.name;
  r.points = simulator.sweep(grid, threads);
  return r;
}

std::vector<SweepResult> ExplorationDriver::sweep_all(
    const std::vector<workload::WorkloadProfile>& profiles, const std::vector<Hertz>& grid,
    int threads) const {
  std::vector<SweepResult> results(profiles.size());
  std::vector<std::unique_ptr<sim::ServerSimulator>> simulators;
  simulators.reserve(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    simulators.push_back(
        std::make_unique<sim::ServerSimulator>(profiles[p], platform_, config_));
    results[p].workload = profiles[p].name;
    results[p].points.resize(grid.size());
  }

  // Flatten every (workload, frequency) pair into one task index space.
  sim::parallel_for_index(threads, profiles.size() * grid.size(), [&](std::size_t t) {
    const std::size_t p = t / grid.size();
    const std::size_t i = t % grid.size();
    results[p].points[i] = simulators[p]->evaluate(grid[i]);
  });
  return results;
}

Second MeasuredQosSweep::baseline_p99() const {
  NTSERV_EXPECTS(!points.empty(), "empty measured sweep");
  const auto it = std::max_element(
      points.begin(), points.end(),
      [](const auto& a, const auto& b) { return a.frequency < b.frequency; });
  return it->p99;
}

MeasuredQosSweep sweep_measured_qos(const dc::Scenario& scenario,
                                    const qos::QosTarget& target,
                                    const std::vector<Hertz>& grid, int threads) {
  NTSERV_EXPECTS(!grid.empty(), "measured sweep needs at least one grid point");
  MeasuredQosSweep sweep;
  sweep.scenario = scenario.name;
  sweep.workload = scenario.profile.name;

  std::vector<dc::Scenario> runs(grid.size(), scenario);
  for (std::size_t i = 0; i < grid.size(); ++i) runs[i].frequency = grid[i];
  const std::vector<dc::FleetResult> fleet = dc::run_scenarios(runs, threads);

  sweep.points.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    char run[64];
    std::snprintf(run, sizeof run, "f=%.0f MHz", grid[i].value() / 1e6);
    warn_truncated("measured-QoS", sweep.scenario, run, fleet[i]);
    MeasuredQosPoint& p = sweep.points[i];
    p.frequency = grid[i];
    p.p50 = fleet[i].p50;
    p.p95 = fleet[i].p95;
    p.p99 = fleet[i].p99;
    p.utilization = fleet[i].utilization;
    p.throughput = fleet[i].throughput;
    p.truncated = fleet[i].truncated;
  }
  const Second base = sweep.baseline_p99();
  NTSERV_EXPECTS(base.value() > 0.0,
                 "baseline (highest-frequency) point measured no completions — "
                 "the scenario saturates even at the top of the grid");
  for (auto& p : sweep.points) {
    // A point with no measured completions is a fully saturated fleet:
    // its tail is unbounded, not zero.
    p.normalized_p99 = p.p99.value() > 0.0
                           ? qos::measured_normalized_latency(target, p.p99, base)
                           : std::numeric_limits<double>::infinity();
  }
  return sweep;
}

const GovernorPoint& GovernorSweep::at(ctrl::GovernorKind kind) const {
  for (const auto& p : points) {
    if (p.governor == kind) return p;
  }
  throw ModelError(std::string("governor sweep has no point for ") + to_string(kind));
}

GovernorSweep sweep_governors(const dc::Scenario& scenario,
                              const std::vector<ctrl::GovernorKind>& kinds, int threads) {
  NTSERV_EXPECTS(!kinds.empty(), "governor sweep needs at least one kind");
  std::vector<dc::Scenario> runs(kinds.size(), scenario);
  for (std::size_t i = 0; i < kinds.size(); ++i) runs[i].governor.kind = kinds[i];
  std::vector<dc::FleetResult> results = dc::run_scenarios(runs, threads);

  GovernorSweep sweep;
  sweep.scenario = scenario.name;
  sweep.workload = scenario.profile.name;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    sweep.points.push_back({kinds[i], std::move(results[i])});
  }
  for (const auto& p : sweep.points) {
    warn_truncated("governor", sweep.scenario, to_string(p.governor), p.result);
  }
  return sweep;
}

ConstrainedChoice choose_operating_point(const SweepResult& sweep,
                                         const qos::QosTarget& target) {
  const double base = sweep.baseline_uips();
  const Hertz floor = qos::frequency_floor(target, sweep.uips_samples(), base);

  ConstrainedChoice choice;
  choice.qos_floor = floor;
  bool found = false;
  std::size_t best = 0;
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    if (sweep.points[i].frequency < floor) continue;
    if (!found || sweep.efficiency(i, Scope::kServer) > sweep.efficiency(best, Scope::kServer)) {
      best = i;
      found = true;
    }
  }
  NTSERV_EXPECTS(found, "no sweep point at or above the QoS floor");
  choice.chosen_frequency = sweep.points[best].frequency;
  choice.efficiency = sweep.efficiency(best, Scope::kServer);
  choice.normalized_p99 =
      qos::normalized_latency(target, sweep.points[best].uips, base);
  return choice;
}

double energy_proportionality(const SweepResult& sweep, Scope scope) {
  NTSERV_EXPECTS(sweep.points.size() >= 2, "need at least two sweep points");
  // Identify the lowest- and highest-frequency points.
  std::size_t lo = 0, hi = 0;
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    if (sweep.points[i].frequency < sweep.points[lo].frequency) lo = i;
    if (sweep.points[i].frequency > sweep.points[hi].frequency) hi = i;
  }
  auto power_at = [&](std::size_t i) {
    const auto& p = sweep.points[i].power;
    switch (scope) {
      case Scope::kCores: return p.cores().value();
      case Scope::kSoc: return p.soc().value();
      case Scope::kServer: return p.server().value();
    }
    return 0.0;
  };
  const double load_ratio = sweep.points[lo].uips / sweep.points[hi].uips;
  const double power_ratio = power_at(lo) / power_at(hi);
  // Perfect proportionality: power_ratio == load_ratio -> score 1.
  // Completely flat power: power_ratio == 1 -> score 0.
  if (power_ratio >= 1.0) return 0.0;
  return (1.0 - power_ratio) / (1.0 - load_ratio);
}

bool ConsolidationSweep::meets(const dc::FleetResult& result, std::size_t t) const {
  if (result.truncated) return false;
  // Resolve the slice by name: a dedicated split carries its tenant at
  // slice 0 whatever its index in the consolidated table.
  const std::string& name = tenant_names.at(t);
  const dc::TenantResult* tenant = nullptr;
  for (const auto& tr : result.tenants) {
    if (tr.name == name) tenant = &tr;
  }
  if (tenant == nullptr || tenant->shed > 0 || tenant->completed == 0) return false;
  const double bound = tenant_bounds.at(t).value();
  return bound <= 0.0 || tenant->p99.value() <= bound;
}

int ConsolidationSweep::min_consolidated_chips() const {
  int best = -1;
  for (const auto& p : points) {
    bool all = true;
    for (std::size_t t = 0; t < tenant_names.size(); ++t) {
      all = all && meets(p.consolidated, t);
    }
    if (all && (best < 0 || p.chips < best)) best = p.chips;
  }
  return best;
}

int ConsolidationSweep::min_dedicated_chips(std::size_t t) const {
  int best = -1;
  for (const auto& p : points) {
    if (meets(p.dedicated.at(t), t) && (best < 0 || p.chips < best)) best = p.chips;
  }
  return best;
}

ConsolidationSweep sweep_consolidation(const dc::Scenario& scenario,
                                       const std::vector<int>& chip_counts, int threads) {
  NTSERV_EXPECTS(!chip_counts.empty(), "consolidation sweep needs chip counts");
  NTSERV_EXPECTS(scenario.tenants.size() >= 2,
                 "consolidation sweep needs a multi-tenant scenario");
  ConsolidationSweep sweep;
  sweep.scenario = scenario.name;
  for (const auto& t : scenario.tenants) {
    sweep.tenant_names.push_back(t.name);
    sweep.tenant_bounds.push_back(t.qos_p99_limit);
  }

  // Per chip count: the consolidated fleet, then each dedicated split.
  std::vector<dc::Scenario> runs;
  for (const int chips : chip_counts) {
    NTSERV_EXPECTS(chips > 0, "chip counts must be positive");
    for (std::size_t j = 0; j <= scenario.tenants.size(); ++j) {
      dc::Scenario& s = runs.emplace_back(j == 0 ? scenario : scenario.dedicated(j - 1));
      s.servers = chips;
    }
  }
  std::vector<dc::FleetResult> results = dc::run_scenarios(runs, threads);

  auto next = results.begin();
  for (const int chips : chip_counts) {
    ConsolidationPoint& p = sweep.points.emplace_back();
    p.chips = chips;
    p.consolidated = std::move(*next++);
    for (std::size_t t = 0; t < scenario.tenants.size(); ++t) {
      p.dedicated.push_back(std::move(*next++));
    }
  }
  for (const auto& p : sweep.points) {
    warn_truncated("consolidation", sweep.scenario,
                   "consolidated @" + std::to_string(p.chips) + " chips",
                   p.consolidated);
    for (std::size_t t = 0; t < p.dedicated.size(); ++t) {
      warn_truncated("consolidation", sweep.scenario,
                     "dedicated '" + sweep.tenant_names[t] + "' @" +
                         std::to_string(p.chips) + " chips",
                     p.dedicated[t]);
    }
  }
  return sweep;
}

bool ProvisioningSweep::meets(const dc::FleetResult& result) const {
  if (result.truncated) return false;
  if (result.shed > 0 || result.timed_out > 0 || result.in_flight > 0) return false;
  if (result.completed == 0) return false;
  const double bound = p99_bound.value();
  return bound <= 0.0 || result.p99.value() <= bound;
}

int ProvisioningSweep::min_chips(std::size_t a) const {
  int best = -1;
  for (const auto& p : points) {
    if (meets(p.results.at(a)) && (best < 0 || p.chips < best)) best = p.chips;
  }
  return best;
}

const dc::FleetResult& ProvisioningSweep::at(int chips, std::size_t a) const {
  for (const auto& p : points) {
    if (p.chips == chips) return p.results.at(a);
  }
  throw ModelError("provisioning sweep did not run " + std::to_string(chips) + " chips");
}

ProvisioningSweep sweep_provisioning(const dc::Scenario& scenario,
                                     const std::vector<int>& chip_counts,
                                     const std::vector<ProvisioningArm>& arms,
                                     Second p99_bound, int threads) {
  NTSERV_EXPECTS(!chip_counts.empty(), "provisioning sweep needs chip counts");
  NTSERV_EXPECTS(!arms.empty(), "provisioning sweep needs at least one arm");
  for (const auto& arm : arms) {
    NTSERV_EXPECTS(!arm.orchestration.router.enabled,
                   "provisioning arms cannot route: routing fixes the fleet shape");
  }
  ProvisioningSweep sweep;
  sweep.scenario = scenario.name;
  sweep.p99_bound = p99_bound;
  for (const auto& arm : arms) sweep.arm_labels.push_back(arm.label);

  // Per chip count, every arm in arm order.
  std::vector<dc::Scenario> runs;
  for (const int chips : chip_counts) {
    NTSERV_EXPECTS(chips > 0, "chip counts must be positive");
    for (const auto& arm : arms) {
      dc::Scenario& s = runs.emplace_back(scenario);
      s.servers = chips;
      s.orchestration = arm.orchestration;
      if (s.orchestration.autoscaler.enabled) {
        s.orchestration.autoscaler.min_active =
            std::min(s.orchestration.autoscaler.min_active, chips);
      }
    }
  }
  std::vector<dc::FleetResult> results = dc::run_scenarios(runs, threads);

  auto next = results.begin();
  for (const int chips : chip_counts) {
    ProvisioningPoint& p = sweep.points.emplace_back();
    p.chips = chips;
    for (std::size_t a = 0; a < arms.size(); ++a) p.results.push_back(std::move(*next++));
  }
  for (const auto& p : sweep.points) {
    for (std::size_t a = 0; a < arms.size(); ++a) {
      warn_truncated("provisioning", sweep.scenario,
                     "arm '" + arms[a].label + "' @" + std::to_string(p.chips) + " chips",
                     p.results[a]);
    }
  }
  return sweep;
}

std::vector<ResilienceArm> default_resilience_arms(const dc::Scenario& scenario) {
  dc::ResilienceConfig failover_only;
  failover_only.failover = true;
  failover_only.timeout = scenario.resilience.timeout;
  dc::ResilienceConfig full = scenario.resilience;
  full.failover = true;
  return {{"health-blind", dc::ResilienceConfig{}},
          {"failover", failover_only},
          {"full", full}};
}

const FaultPoint& FaultSweep::at(const std::string& label) const {
  for (const auto& p : points) {
    if (p.label == label) return p;
  }
  throw ModelError("fault sweep has no arm labelled '" + label + "'");
}

FaultSweep sweep_faults(const dc::Scenario& scenario,
                        const std::vector<ResilienceArm>& arms, int threads) {
  NTSERV_EXPECTS(!arms.empty(), "fault sweep needs at least one resilience arm");
  return run_fault_arms(scenario, arms, threads, "fault",
                        [](dc::Scenario& s, const ResilienceArm& arm) {
                          s.resilience = arm.resilience;
                        });
}

std::vector<BrownoutArm> default_brownout_arms() {
  std::vector<BrownoutArm> arms(4);
  arms[0].label = "off";
  arms[1].label = "shed-only";
  arms[1].brownout = true;
  arms[1].max_stage = ctrl::BrownoutStage::kShedBatch;
  arms[2].label = "ladder";
  arms[2].brownout = true;
  arms[2].breaker = true;
  arms[3].label = "ladder+ewake";
  arms[3].brownout = true;
  arms[3].breaker = true;
  arms[3].emergency_wake = true;
  return arms;
}

FaultSweep sweep_faults(const dc::Scenario& scenario,
                        const std::vector<BrownoutArm>& arms, int threads) {
  NTSERV_EXPECTS(!arms.empty(), "fault sweep needs at least one brownout arm");
  return run_fault_arms(scenario, arms, threads, "brownout",
                        [](dc::Scenario& s, const BrownoutArm& arm) {
                          s.brownout.enabled = arm.brownout;
                          if (arm.brownout) s.brownout.max_stage = arm.max_stage;
                          s.breaker.enabled = arm.breaker;
                          s.orchestration.autoscaler.emergency_wake = arm.emergency_wake;
                        });
}

double consolidation_headroom(const SweepResult& sweep, const qos::QosTarget& target) {
  const double base = sweep.baseline_uips();
  const Hertz floor = qos::frequency_floor(target, sweep.uips_samples(), base);
  const std::size_t opt = sweep.optimal_index(Scope::kServer);
  const Hertz f_opt = sweep.points[opt].frequency;
  if (f_opt <= floor) return 1.0;

  // UIPS at the floor, interpolated on the sweep grid.
  const auto samples = sweep.uips_samples();
  double uips_floor = samples.front().uips;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].frequency >= floor) {
      const double t = (floor.value() - samples[i - 1].frequency.value()) /
                       (samples[i].frequency.value() - samples[i - 1].frequency.value());
      uips_floor = samples[i - 1].uips + t * (samples[i].uips - samples[i - 1].uips);
      break;
    }
  }
  return sweep.points[opt].uips / uips_floor;
}

}  // namespace ntserv::dse
