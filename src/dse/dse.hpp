// Design-space exploration driver (the paper's Sec. V analyses).
//
// Wraps ServerSimulator sweeps with the analyses the paper reports:
//  * the efficiency-vs-frequency series of Figs. 3 and 4 at the three
//    scopes (cores / SoC / server);
//  * the optimal operating point per scope (lowest-f for cores-only,
//    ~1 GHz for SoC, ~1.2 GHz for server);
//  * QoS-constrained operating points (Fig. 2 floors intersected with the
//    efficiency optimum);
//  * an energy-proportionality score (Sec. V-C: how far the platform is
//    from power proportional to load);
//  * consolidation headroom in relaxed-QoS public clouds (Sec. V-C).
//
// The request-level fleet sweeps (sweep_measured_qos, sweep_governors,
// sweep_faults, sweep_consolidation, sweep_provisioning) each build one
// scenario copy per run — at the scenario's own frequency unless the
// sweep's axis is frequency — fan them out through dc::run_scenarios, and
// fold the results in run order.
#pragma once

#include <string>
#include <vector>

#include "dc/scenario.hpp"
#include "qos/qos.hpp"
#include "sim/server_sim.hpp"

namespace ntserv::dse {

/// Which power scope divides UIPS in an efficiency series.
enum class Scope { kCores, kSoc, kServer };

[[nodiscard]] const char* to_string(Scope s);

/// A full frequency sweep for one workload.
struct SweepResult {
  std::string workload;
  std::vector<sim::OperatingPointResult> points;

  [[nodiscard]] double efficiency(std::size_t i, Scope s) const;

  /// Index of the most efficient point at the given scope.
  [[nodiscard]] std::size_t optimal_index(Scope s) const;
  [[nodiscard]] Hertz optimal_frequency(Scope s) const;

  /// UIPS samples for the QoS floor solvers.
  [[nodiscard]] std::vector<qos::UipsSample> uips_samples() const;

  /// UIPS at the highest simulated frequency (the 2 GHz QoS baseline).
  [[nodiscard]] double baseline_uips() const;
};

/// Runs sweeps over a set of workloads with a shared platform.
class ExplorationDriver {
 public:
  ExplorationDriver(power::ServerPowerModel platform, sim::ServerSimConfig config)
      : platform_(std::move(platform)), config_(config) {}

  /// Sweep one workload, fanning the grid points out over `threads`
  /// workers (0 = NTSERV_THREADS). Results are thread-count invariant
  /// (see ServerSimulator::sweep).
  [[nodiscard]] SweepResult sweep(const workload::WorkloadProfile& profile,
                                  const std::vector<Hertz>& grid, int threads = 0) const;

  /// Sweep many workloads over a shared grid, flattening every
  /// (workload, frequency) pair into one task pool so the figure drivers
  /// saturate the machine even with short grids.
  [[nodiscard]] std::vector<SweepResult> sweep_all(
      const std::vector<workload::WorkloadProfile>& profiles,
      const std::vector<Hertz>& grid, int threads = 0) const;

  [[nodiscard]] const power::ServerPowerModel& platform() const { return platform_; }
  [[nodiscard]] const sim::ServerSimConfig& config() const { return config_; }

 private:
  power::ServerPowerModel platform_;
  sim::ServerSimConfig config_;
};

/// QoS-constrained selection: the most server-efficient point that also
/// meets the workload's QoS floor.
struct ConstrainedChoice {
  Hertz qos_floor;          ///< minimum frequency meeting QoS
  Hertz chosen_frequency;   ///< efficiency optimum subject to the floor
  double efficiency;        ///< UIPS/W(server) at the chosen point
  double normalized_p99;    ///< Fig. 2 metric at the chosen point
};

[[nodiscard]] ConstrainedChoice choose_operating_point(const SweepResult& sweep,
                                                       const qos::QosTarget& target);

/// Energy-proportionality score in [0,1]: 1 - P(idle-equivalent)/P(peak),
/// computed from a sweep as the ratio of the power at the lowest-f point
/// to the power at the highest-f point, weighted by their throughputs
/// (Barroso & Hölzle's EP notion reduced to the DVFS axis).
[[nodiscard]] double energy_proportionality(const SweepResult& sweep, Scope scope);

// ---- Measured (request-level) QoS sweeps ----

/// One frequency point of a measured tail-latency sweep.
struct MeasuredQosPoint {
  Hertz frequency;
  Second p50{0.0};
  Second p95{0.0};
  Second p99{0.0};
  /// Fig. 2 metric from *measured* request latencies: the QoS anchor's
  /// baseline p99 scaled by the measured tail ratio against the sweep's
  /// highest-frequency point, over the QoS limit.
  double normalized_p99 = 0.0;
  double utilization = 0.0;
  double throughput = 0.0;
  bool truncated = false;  ///< the fleet saturated and hit its cycle cap
};

/// A frequency sweep of one dc::Scenario with measured tail latencies.
struct MeasuredQosSweep {
  std::string scenario;
  std::string workload;
  std::vector<MeasuredQosPoint> points;

  /// Simulated p99 at the highest-frequency point (the 2 GHz baseline's
  /// role in the paper's methodology).
  [[nodiscard]] Second baseline_p99() const;
};

/// Sweep a scenario over a frequency grid (each point a copy of the
/// scenario with `frequency` set), fanning the points out over `threads`
/// workers (0 = NTSERV_THREADS). Each point runs its fleet with the
/// scenario's own seed, so results are bit-identical for any thread count.
[[nodiscard]] MeasuredQosSweep sweep_measured_qos(const dc::Scenario& scenario,
                                                  const qos::QosTarget& target,
                                                  const std::vector<Hertz>& grid,
                                                  int threads = 0);

// ---- Closed-loop governor sweeps (src/ctrl) ----

/// One governor's closed-loop outcome on a scenario.
struct GovernorPoint {
  ctrl::GovernorKind governor = ctrl::GovernorKind::kNone;
  dc::FleetResult result;  ///< includes energy, epoch records, shed counters
};

/// A governor face-off on one scenario at its dispatch frequency.
struct GovernorSweep {
  std::string scenario;
  std::string workload;
  std::vector<GovernorPoint> points;

  /// Point for a given governor kind; throws if the sweep did not run it.
  [[nodiscard]] const GovernorPoint& at(ctrl::GovernorKind kind) const;
};

/// Run one scenario under each governor kind, fanning the runs out over
/// `threads` workers (0 = NTSERV_THREADS). Every point is an
/// independent fleet simulation with the scenario's own seed — the
/// arrival stream, budgets and epoch decisions are bit-identical for any
/// thread count. The scenario's governor config (curve, QoS limit,
/// epoch sizing) is kept; only the kind is overridden per point.
[[nodiscard]] GovernorSweep sweep_governors(const dc::Scenario& scenario,
                                            const std::vector<ctrl::GovernorKind>& kinds,
                                            int threads = 0);

// ---- Fault-tolerance sweeps (src/fault + dc resilience) ----

/// One resilience posture to run a faulted scenario under. The scenario's
/// fault schedule is kept; only ResilienceConfig is overridden per arm, so
/// a sweep contrasts e.g. a health-blind fleet against failover and
/// failover+hedging on the *same* deterministic failure trace.
struct ResilienceArm {
  std::string label;
  dc::ResilienceConfig resilience;
};

/// The canonical three-arm ladder derived from a scenario's own resilience
/// config: health-blind baseline, failover only, and the scenario's full
/// posture (failover plus whatever timeouts/hedging it configures).
[[nodiscard]] std::vector<ResilienceArm> default_resilience_arms(
    const dc::Scenario& scenario);

/// One arm's outcome on the faulted scenario.
struct FaultPoint {
  std::string label;
  dc::FleetResult result;

  /// Requests that neither completed nor were accounted as shed/timed-out
  /// and are not still in flight would violate the fleet's conservation
  /// invariant; "lost" here means the visible degradations: shed plus
  /// timed-out plus stranded in-flight work.
  [[nodiscard]] std::uint64_t lost() const {
    return result.shed + result.timed_out + result.in_flight;
  }
};

/// A resilience-arm sweep of one faulted dc::Scenario, next to a healthy
/// reference run (fault schedule stripped, first arm's resilience).
struct FaultSweep {
  std::string scenario;
  std::string workload;
  dc::FleetResult healthy;         ///< no faults, first arm's resilience
  std::vector<FaultPoint> points;  ///< one per arm, in arm order

  /// Point for a given arm label; throws if the sweep did not run it.
  [[nodiscard]] const FaultPoint& at(const std::string& label) const;
};

/// Run one faulted scenario under each resilience arm (plus the healthy
/// reference), fanning the runs out over `threads` workers (0 =
/// NTSERV_THREADS). Every run is an independent fleet simulation with the
/// scenario's own seed — the arrival stream *and the fault schedule* are
/// bit-identical across arms and for any thread count, so differences
/// between arms are purely the resilience machinery.
[[nodiscard]] FaultSweep sweep_faults(const dc::Scenario& scenario,
                                      const std::vector<ResilienceArm>& arms,
                                      int threads = 0);

/// One graceful-degradation posture to run a faulted scenario under. The
/// scenario's fault schedule, traffic and resilience are kept; only the
/// brownout ladder, the circuit breakers, and the autoscaler's emergency
/// wake are overridden per arm, so a sweep contrasts e.g. a blind fleet
/// against the full ladder on the *same* correlated failure trace.
struct BrownoutArm {
  std::string label;
  bool brownout = false;  ///< enable the overload shedding ladder
  /// Deepest ladder rung the arm may escalate to (shed-only arms clamp
  /// at kShedBatch); ignored when `brownout` is off.
  ctrl::BrownoutStage max_stage = ctrl::BrownoutStage::kCriticalOnly;
  bool breaker = false;         ///< enable per-chip circuit breakers
  bool emergency_wake = false;  ///< domain outage wakes parked chips at once
};

/// The canonical four-arm graceful-degradation ladder: everything off,
/// shed-only (ladder clamped at its first rung), the full ladder with
/// breakers, and the full ladder plus the autoscaler's emergency wake.
[[nodiscard]] std::vector<BrownoutArm> default_brownout_arms();

/// Run one faulted scenario under each brownout arm (plus the healthy
/// reference, first arm's posture). Same determinism contract as the
/// resilience-arm overload: the arrival stream and the fault trace are
/// shared across arms and bit-identical for any thread count.
[[nodiscard]] FaultSweep sweep_faults(const dc::Scenario& scenario,
                                      const std::vector<BrownoutArm>& arms,
                                      int threads = 0);

/// Consolidation headroom (Sec. V-C): with QoS met at `qos_floor` but the
/// efficiency optimum at `f_opt` > floor, the spare throughput factor
/// UIPS(f_opt)/UIPS(floor) bounds how much additional co-located load the
/// server could absorb at the optimum without violating the original QoS.
[[nodiscard]] double consolidation_headroom(const SweepResult& sweep,
                                            const qos::QosTarget& target);

// ---- Measured consolidation studies (multi-tenant chip fleets) ----

/// One chip-count point of a consolidation study: the consolidated fleet
/// (all tenants co-located on `chips` chips) next to each tenant served
/// alone on an identically shaped dedicated fleet of `chips` chips.
struct ConsolidationPoint {
  int chips = 0;
  dc::FleetResult consolidated;
  std::vector<dc::FleetResult> dedicated;  ///< one per tenant, in tenant order
};

/// A measured chip-count sweep of one consolidated dc::Scenario: the data
/// behind the paper's Sec. V-C consolidation argument, at the request
/// level. A fleet "meets" a tenant when the run is untruncated, sheds
/// nothing of that tenant, and its measured per-tenant p99 is within the
/// tenant's qos_p99_limit (unbounded tenants only need completion).
struct ConsolidationSweep {
  std::string scenario;
  std::vector<std::string> tenant_names;
  std::vector<Second> tenant_bounds;      ///< per-tenant p99 bounds (0 = unbounded)
  std::vector<ConsolidationPoint> points; ///< in the order of the requested counts

  /// Whether tenant `t` (an index into tenant_names/tenant_bounds) meets
  /// its bound in `result`; the slice is resolved by tenant name, so the
  /// same index works for consolidated runs and dedicated splits.
  [[nodiscard]] bool meets(const dc::FleetResult& result, std::size_t t) const;
  /// Smallest swept chip count whose consolidated fleet meets *every*
  /// tenant's bound; -1 when none does.
  [[nodiscard]] int min_consolidated_chips() const;
  /// Smallest swept chip count whose dedicated fleet for tenant `t` meets
  /// that tenant's bound; -1 when none does.
  [[nodiscard]] int min_dedicated_chips(std::size_t t) const;
};

/// Sweep a consolidated scenario over fleet sizes, running the
/// consolidated fleet and every dedicated split at each chip count and
/// fanning all of the runs out over `threads` workers (0 =
/// NTSERV_THREADS). Each run is an independent seed-derived simulation,
/// so results are bit-identical for any thread count.
[[nodiscard]] ConsolidationSweep sweep_consolidation(const dc::Scenario& scenario,
                                                     const std::vector<int>& chip_counts,
                                                     int threads = 0);

// ---- Provisioning sweeps (src/orch fleet orchestration) ----

/// One orchestration posture to run a scenario under. The scenario's
/// shape and traffic are kept; only FleetConfig::orchestration is
/// overridden per arm, so a sweep contrasts e.g. a fixed-size fleet
/// against the same fleet with the autoscaler on, or an uncapped fleet
/// against a capped one, on the *same* arrival stream. Router arms are
/// rejected: routing fixes the fleet shape, which a chip-count sweep
/// varies.
struct ProvisioningArm {
  std::string label;
  orch::OrchestratorConfig orchestration;
};

/// One chip-count point: the scenario under every arm at that fleet size.
struct ProvisioningPoint {
  int chips = 0;
  std::vector<dc::FleetResult> results;  ///< one per arm, in arm order
};

/// A chip-count x orchestration-arm sweep: the provisioning questions the
/// orchestration layer answers — how many chips a p99 bound needs, what
/// autoscaling saves at equal QoS, what a power cap costs in tail.
struct ProvisioningSweep {
  std::string scenario;
  std::vector<std::string> arm_labels;
  Second p99_bound{0.0};  ///< fleet-wide measured p99 bound (0 = unbounded)
  std::vector<ProvisioningPoint> points;  ///< in the order of the requested counts

  /// A run meets the bound when it is untruncated, loses nothing (no
  /// shed, timeouts or stranded in-flight work), completes measured
  /// requests, and its measured p99 is within p99_bound.
  [[nodiscard]] bool meets(const dc::FleetResult& result) const;
  /// Smallest swept chip count meeting the bound under arm `a`; -1 when
  /// none does.
  [[nodiscard]] int min_chips(std::size_t a) const;
  /// Result for a swept chip count under arm `a`; throws if not swept.
  [[nodiscard]] const dc::FleetResult& at(int chips, std::size_t a) const;
};

/// Sweep a scenario over fleet sizes under each orchestration arm,
/// fanning every (chip count, arm) run out over `threads` workers
/// (0 = NTSERV_THREADS). Each run is an independent seed-derived fleet,
/// so results are bit-identical for any thread count. An autoscaler
/// arm's min_active is clamped to the swept chip count.
[[nodiscard]] ProvisioningSweep sweep_provisioning(const dc::Scenario& scenario,
                                                   const std::vector<int>& chip_counts,
                                                   const std::vector<ProvisioningArm>& arms,
                                                   Second p99_bound, int threads = 0);

}  // namespace ntserv::dse
