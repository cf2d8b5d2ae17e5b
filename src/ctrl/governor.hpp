// Reactive DVFS governors for the closed-loop serving fleet.
//
// src/pm simulates power-management policies over an *offline* demand
// trace; src/dc serves *measured* requests at one fixed frequency. This
// module is the bridge the paper's Sec. V-C argument actually needs: a
// governor observes each epoch of the running fleet simulation (measured
// utilization, measured tail latency) and picks the next epoch's
// frequency, paying the physical transition costs from tech/body_bias.
// Three governors map onto the pm::Policy taxonomy:
//
//  * kFixedMax     — pin f_max, never sleep: the unmanaged baseline
//                    (pm::Policy::kFixedMax as a runtime controller);
//  * kOndemandDvfs — each epoch, the slowest curve frequency whose
//                    throughput covers the measured demand plus headroom
//                    (pm::Policy::kDvfsFollow reacting to measurement
//                    instead of an oracle trace), paying the DVFS
//                    voltage-ramp time on every change;
//  * kNtcBoost     — pin the server-efficiency optimum and duty-cycle
//                    around it; when the measured epoch p99 approaches the
//                    QoS limit, engage a forward-body-bias boost *above*
//                    the nominal DVFS maximum (FBB at constant supply
//                    lifts the reachable frequency) with the *fast*
//                    (~1 us) bias transition — the paper's thesis
//                    (Sec. II-A item 2) expressed as a feedback
//                    controller.
//
// Governors are deterministic state machines over measurements that are
// themselves seed-derived, so a governed fleet run is bit-reproducible
// and thread-count invariant exactly like the open-loop runs.
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.hpp"
#include "pm/power_manager.hpp"
#include "tech/technology.hpp"

namespace ntserv::ctrl {

enum class GovernorKind {
  kNone,         ///< open loop: the fleet's fixed configured frequency
  kFixedMax,     ///< always the curve's top frequency, duty 1.0
  kOndemandDvfs, ///< slowest curve point covering measured demand
  kNtcBoost,     ///< efficiency optimum + FBB boost on p99 pressure
};

[[nodiscard]] const char* to_string(GovernorKind k);

/// What the fleet hands the governor at the end of each epoch.
struct EpochObservation {
  std::uint64_t epoch = 0;
  Hertz frequency;             ///< frequency the epoch ran at
  double utilization = 0.0;    ///< busy-core fraction over the epoch
  std::uint64_t completions = 0;
  /// Nearest-rank p99 of the epoch's completed-request latencies;
  /// 0 when the epoch completed nothing (no tail signal: hold).
  Second p99{0.0};
};

/// Per-epoch outcome record. Embeds the pm::EpochDecision record so the
/// closed-loop trajectory can be compared 1:1 against the offline
/// pm::PowerManager::run decisions for the same demand shape.
struct EpochRecord {
  pm::EpochDecision decision;  ///< frequency/duty/sleep/power, shared with src/pm
  int chip = 0;                ///< chip the record belongs to (per-chip DVFS)
  std::uint64_t epoch = 0;
  double utilization = 0.0;
  Second p99{0.0};             ///< measured epoch tail (0 = no completions)
  Second duration{0.0};
  bool transition = false;     ///< epoch began with a frequency change
  Second transition_time{0.0};
  bool boosted = false;        ///< NTC governor had its FBB boost engaged
  bool violation = false;      ///< p99 over the QoS limit (transition epochs excluded)
  /// Guardband margin the epoch was charged at (0 = nominal operation).
  double margin = 0.0;
  /// Span of the epoch the chip spent crashed (fault injection); down
  /// time is charged at zero power and serves nothing.
  Second down_time{0.0};
  /// Span of the epoch the chip spent parked by the orchestrator's
  /// autoscaler, charged at the platform's deep-idle sleep floor.
  Second parked_time{0.0};
  /// The epoch ran below its governor's decided frequency because the
  /// fleet power cap's per-chip budget could not afford it.
  bool capped = false;

  bool operator==(const EpochRecord&) const = default;
};

struct GovernorConfig {
  GovernorKind kind = GovernorKind::kNone;
  /// Technology flavor the governed platform is built on (the paper's
  /// Fig. 1 calibrations). The default reproduces the FD-SOI NTC fleet;
  /// orch::FleetGroup sets bulk28 for the conventional comparison fleet.
  tech::TechnologyParams tech = tech::TechnologyParams::fdsoi28();
  /// Epoch length in dispatch quanta *at the fleet's configured base
  /// frequency* (epoch = epoch_quanta * quantum / f_base seconds, a
  /// constant wall-time control interval — a governor that slowed the
  /// clock must not also slow its own reaction time). Size it so an
  /// epoch completes enough requests for its p99 to be a tail, not a
  /// single sample — tens of completions minimum for the boost feedback
  /// to be stable.
  int epoch_quanta = 512;
  /// UIPS(f) curve: the DVFS grid the governors pick from and the
  /// capacity model demand is measured against. Empty means "use
  /// ctrl::default_uips_curve()" (resolved at fleet construction).
  pm::UipsCurve curve;
  /// NTC boost SLO on the measured epoch p99, in *simulated* time (use
  /// qos::sim_qos_limit to anchor an application QoS limit here).
  /// Required (> 0) for kNtcBoost, ignored by the other kinds.
  Second qos_p99_limit{0.0};
  /// ---- Guardband mode (graceful degradation on detected errors) ----
  /// A fault::FaultKind::kDegrade event delivered to a governed chip
  /// calls FleetGovernor::on_error(): the governor backs off any FBB
  /// overdrive and raises its operating margin to guardband_margin (the
  /// supply point of f*(1+margin) while serving at f, charged through
  /// the existing power model). After kGuardbandHoldEpochs at full
  /// margin it relaxes by kGuardbandRelaxStep per epoch, so recovery to
  /// the pre-fault operating point is bounded by
  /// hold + ceil(margin/step) epochs.
  double guardband_margin = 0.12;

  void validate() const;
};

/// Closed epochs a guardbanded chip holds its full margin before relaxing.
inline constexpr int kGuardbandHoldEpochs = 2;
/// Margin the guardband sheds per closed epoch once the hold has passed.
inline constexpr double kGuardbandRelaxStep = 0.03;

/// Nominal chip-scale UIPS curve on the paper's 0.2-2.0 GHz axis, scaled
/// from the same per-core UIPC the scenario sizing uses with a mildly
/// sub-linear knee (memory-bound high end). For sizing and energy
/// accounting when no measured curve is supplied; the figure drivers feed
/// measured sweeps instead.
[[nodiscard]] pm::UipsCurve default_uips_curve();

/// The PowerManager a governed fleet charges energy through: the
/// governor's technology flavor with its curve.
[[nodiscard]] pm::PowerManager make_power_manager(const GovernorConfig& config);

/// Epoch-based feedback controller over the running fleet.
class FleetGovernor {
 public:
  virtual ~FleetGovernor() = default;

  [[nodiscard]] virtual GovernorKind kind() const = 0;

  /// Frequency the fleet should start at (before any observation).
  [[nodiscard]] virtual Hertz initial_frequency() const = 0;

  /// Frequency for the next epoch given the last epoch's measurement.
  [[nodiscard]] virtual Hertz decide(const EpochObservation& obs) = 0;

  /// What decide() *would* return for `obs`, without advancing the
  /// governor's state. The governor-aware balancer (dc::BalancePolicy::
  /// kGovernorAware) polls this mid-epoch with a running partial
  /// observation to steer latency-critical requests away from chips whose
  /// governor is about to descend in frequency.
  [[nodiscard]] virtual Hertz peek(const EpochObservation& obs) const = 0;

  /// Wall-clock cost of a frequency change, charged as a service stall.
  [[nodiscard]] virtual Second transition_time(Hertz from, Hertz to) const = 0;

  /// Duty-cycle semantics for energy accounting: true when the governor
  /// drops idle cores into RBB sleep (energy_for_duty with measured
  /// duty), false when the platform stays active the whole epoch.
  [[nodiscard]] virtual bool sleeps_when_idle() const = 0;

  /// NTC boost state (false for the other governors).
  [[nodiscard]] virtual bool boosted() const { return false; }

  /// Energy of one server over `duration` at frequency `f` with the
  /// given duty cycle. The default charges the platform's DVFS power at
  /// the guardband-margined supply point; a governor in a boosted device
  /// state (FBB overdrive at the nominal top supply) overrides this with
  /// the biased device's power model.
  [[nodiscard]] virtual Joule epoch_energy(const pm::PowerManager& manager, Hertz f,
                                           double duty, Second duration) const;

  // ---- Guardband mode (all governor kinds; see GovernorConfig) ----
  void configure_guardband(double margin);
  /// A detected error on the governed chip: engage the full margin and
  /// restart the hold window. Idempotent while already guardbanded.
  void on_error();
  /// One rate-limited relaxation step; the fleet calls this once per
  /// closed epoch so recovery is bounded in epochs, not wall time.
  void relax_guardband();
  /// Current operating margin (0 = nominal operation).
  [[nodiscard]] double margin() const { return margin_; }
  [[nodiscard]] bool guardbanded() const { return margin_ > 0.0; }

 protected:
  /// Supply point the margined platform is charged at: `f` stretched by
  /// the margin, clamped to the device's feasible maximum.
  [[nodiscard]] Hertz margined_frequency(const pm::PowerManager& manager, Hertz f) const;

 private:
  double guard_margin_ = 0.12;
  double margin_ = 0.0;
  int hold_left_ = 0;
};

/// Build the configured governor over a PowerManager (which must outlive
/// the governor; ClusterFleet owns both).
[[nodiscard]] std::unique_ptr<FleetGovernor> make_governor(const GovernorConfig& config,
                                                           const pm::PowerManager& manager);

}  // namespace ntserv::ctrl
