#include "ctrl/governor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "power/server_power.hpp"
#include "tech/body_bias.hpp"
#include "tech/technology.hpp"

namespace ntserv::ctrl {

const char* to_string(GovernorKind k) {
  switch (k) {
    case GovernorKind::kNone: return "open-loop";
    case GovernorKind::kFixedMax: return "fixed-max";
    case GovernorKind::kOndemandDvfs: return "ondemand-dvfs";
    case GovernorKind::kNtcBoost: return "ntc-boost";
  }
  return "unknown";
}

void GovernorConfig::validate() const {
  NTSERV_EXPECTS(epoch_quanta > 0, "epoch must span at least one quantum");
  NTSERV_EXPECTS(curve.empty() || curve.size() >= 2,
                 "a supplied UIPS curve needs at least two points");
  NTSERV_EXPECTS(guardband_margin >= 0.0 && guardband_margin <= 0.5,
                 "guardband margin must be in [0, 0.5]");
  if (kind == GovernorKind::kNtcBoost) {
    // The boost path forward-biases an FD-SOI flip-well; bulk has no
    // body-bias terminal worth the name (paper Sec. II-A).
    NTSERV_EXPECTS(tech.process == tech::Process::kFdSoi28,
                   "kNtcBoost requires an FD-SOI technology flavor");
    NTSERV_EXPECTS(qos_p99_limit.value() > 0.0,
                   "kNtcBoost needs a positive qos_p99_limit (anchor one via "
                   "qos::sim_qos_limit)");
  }
}

pm::UipsCurve default_uips_curve() {
  // Same nominal per-core UIPC the scenario sizing uses (0.35 at 2 GHz),
  // chip scale, with a mildly sub-linear high end (uncore and DRAM time
  // do not scale with core frequency). Only ratios matter to the
  // governors, so the absolute scale is cosmetic.
  constexpr double kUipsAt2GHz = 0.35 * 36 * 2e9;
  pm::UipsCurve curve;
  for (int i = 0; i < 10; ++i) {
    const double f = 0.2e9 + (2.0e9 - 0.2e9) * static_cast<double>(i) / 9.0;
    curve.push_back({Hertz{f}, kUipsAt2GHz * std::pow(f / 2e9, 0.8)});
  }
  return curve;
}

pm::PowerManager make_power_manager(const GovernorConfig& config) {
  const power::ServerPowerModel platform{tech::TechnologyModel{config.tech},
                                         power::ChipConfig{}};
  return pm::PowerManager{platform,
                          config.curve.empty() ? default_uips_curve() : config.curve};
}

Joule FleetGovernor::epoch_energy(const pm::PowerManager& manager, Hertz f, double duty,
                                  Second duration) const {
  return manager.energy_for_duty(margined_frequency(manager, f), duty, duration);
}

void FleetGovernor::configure_guardband(double margin) {
  NTSERV_EXPECTS(margin >= 0.0, "guardband margin must be non-negative");
  guard_margin_ = margin;
}

void FleetGovernor::on_error() {
  if (guard_margin_ <= 0.0) return;
  margin_ = guard_margin_;
  hold_left_ = kGuardbandHoldEpochs;
}

void FleetGovernor::relax_guardband() {
  if (margin_ <= 0.0) return;
  if (hold_left_ > 0) {
    --hold_left_;
    return;
  }
  margin_ = std::max(0.0, margin_ - kGuardbandRelaxStep);
}

Hertz FleetGovernor::margined_frequency(const pm::PowerManager& manager, Hertz f) const {
  if (margin_ <= 0.0) return f;
  // The margined chip keeps serving at f but holds the supply of the
  // point f*(1+margin) — the classical timing guardband a processor
  // retreats to after a detected error, clamped to the device's
  // feasible range so the power model can still assign it a voltage.
  const Hertz cap = manager.platform().tech().max_frequency() * 0.95;
  return std::min(Hertz{f.value() * (1.0 + margin_)}, cap);
}

namespace {

/// Per-core well area for the body-bias transition model: the chip's die
/// area spread over its cores (the paper's datum is a 5 mm^2 core).
double core_area_mm2(const pm::PowerManager& manager) {
  const auto& chip = manager.platform().chip();
  return chip.die_area_mm2 / static_cast<double>(chip.total_cores());
}

class FixedMaxGovernor final : public FleetGovernor {
 public:
  explicit FixedMaxGovernor(const pm::PowerManager& manager)
      : f_max_(manager.curve().back().frequency) {}

  [[nodiscard]] GovernorKind kind() const override { return GovernorKind::kFixedMax; }
  [[nodiscard]] Hertz initial_frequency() const override { return f_max_; }
  [[nodiscard]] Hertz decide(const EpochObservation&) override { return f_max_; }
  [[nodiscard]] Hertz peek(const EpochObservation&) const override { return f_max_; }
  [[nodiscard]] Second transition_time(Hertz, Hertz) const override { return Second{0.0}; }
  [[nodiscard]] bool sleeps_when_idle() const override { return false; }

 private:
  Hertz f_max_;
};

class OndemandGovernor final : public FleetGovernor {
 public:
  explicit OndemandGovernor(const pm::PowerManager& manager) : manager_(manager) {}

  [[nodiscard]] GovernorKind kind() const override { return GovernorKind::kOndemandDvfs; }

  [[nodiscard]] Hertz initial_frequency() const override {
    // Start at the top like the kernel's ondemand: the first epochs carry
    // no measurement, and QoS-safe means over-provisioned, not under.
    return manager_.curve().back().frequency;
  }

  [[nodiscard]] Hertz decide(const EpochObservation& obs) override { return target_for(obs); }

  /// The ondemand rule is stateless over the observation, so peeking is
  /// exactly the decision.
  [[nodiscard]] Hertz peek(const EpochObservation& obs) const override {
    return target_for(obs);
  }

  [[nodiscard]] Second transition_time(Hertz from, Hertz to) const override {
    if (from == to) return Second{0.0};
    // A DVFS step is gated by the off-chip regulator's voltage ramp
    // between the two operating points' supplies.
    const auto& t = manager_.platform().tech();
    return tech::dvfs_transition_time(t.voltage_for(from), t.voltage_for(to));
  }

  [[nodiscard]] bool sleeps_when_idle() const override { return false; }

 private:
  /// Capacity margin: chosen capacity >= kHeadroom * measured demand, so
  /// utilization settles near 1/kHeadroom.
  static constexpr double kHeadroom = 1.4;
  /// An epoch whose utilization reaches this jumps straight to the top
  /// frequency (the kernel governor's rule — measured demand saturates at
  /// capacity, so proportional scaling cannot climb out of an overload).
  static constexpr double kUpThreshold = 0.85;
  /// Down-rate limit: at most this many curve grid steps down per epoch
  /// (fast up, gradual down — one cold epoch must not drop the fleet to
  /// the bottom of the grid).
  static constexpr std::size_t kDownSteps = 2;

  [[nodiscard]] Hertz target_for(const EpochObservation& obs) const {
    // A saturated epoch jumps straight to the top: measured demand
    // saturates at the current capacity, so proportional scaling would
    // climb out of an overload one grid step per epoch.
    if (obs.utilization >= kUpThreshold) return manager_.curve().back().frequency;
    // Measured demand in curve units: the epoch's busy fraction times the
    // throughput the fleet could have delivered at the epoch's frequency.
    const double demand = obs.utilization * manager_.uips_at(obs.frequency);
    const Hertz target = manager_.grid_frequency_for_uips(kHeadroom * demand);
    // Fast up, gradual down: never descend more than kDownSteps grid
    // points per epoch, so one cold epoch cannot strand the fleet at the
    // bottom of the grid for a whole reaction interval.
    const auto& curve = manager_.curve();
    const std::size_t cur = grid_index(obs.frequency);
    const std::size_t tgt = grid_index(target);
    if (tgt < cur && cur - tgt > kDownSteps) return curve[cur - kDownSteps].frequency;
    return target;
  }

  /// Index of the curve point nearest to `f` (the grid a real DVFS
  /// driver exposes).
  [[nodiscard]] std::size_t grid_index(Hertz f) const {
    const auto& curve = manager_.curve();
    std::size_t best = 0;
    for (std::size_t i = 1; i < curve.size(); ++i) {
      if (std::abs(curve[i].frequency.value() - f.value()) <
          std::abs(curve[best].frequency.value() - f.value())) {
        best = i;
      }
    }
    return best;
  }

  const pm::PowerManager& manager_;
};

class NtcBoostGovernor final : public FleetGovernor {
  /// Provisioning floor for the pin: the pinned point is the most
  /// server-efficient grid frequency whose throughput is at least this
  /// fraction of the curve's peak. A fleet parked below its sustained
  /// base load would live on the boost, which costs more than it saves.
  static constexpr double kNtcMinCapacity = 0.85;
  /// Boost engages when epoch p99 > kBoostFraction * limit (the margin
  /// must *lead* the violation: the tail keeps climbing for the rest of
  /// the epoch that trips the trigger) and releases below
  /// kReleaseFraction * limit.
  static constexpr double kBoostFraction = 0.6;
  static constexpr double kReleaseFraction = 0.3;
  /// Saturation is the *leading* boost trigger: an epoch whose measured
  /// utilization reaches kBoostUtilization engages the boost before the
  /// tail has formed (p99 is a lagging indicator — by the time it
  /// crosses the limit, a backlog of damaged requests already exists).
  /// Release additionally requires utilization below
  /// kReleaseUtilization, so the boost is held through a sustained
  /// crest.
  static constexpr double kBoostUtilization = 0.95;
  static constexpr double kReleaseUtilization = 0.70;

 public:
  NtcBoostGovernor(const GovernorConfig& config, const pm::PowerManager& manager)
      : manager_(manager),
        // The pin: the most server-efficient grid point that still
        // covers the provisioning floor (kNtcMinCapacity of peak
        // throughput). The unconstrained efficiency optimum of a
        // strongly sub-linear measured curve can sit far below the
        // service's sustained load — a fleet parked there would live on
        // the boost, which defeats it.
        f_opt_(manager.efficiency_optimal_frequency(kNtcMinCapacity * manager.peak_uips())),
        f_boost_(manager.curve().back().frequency),
        boost_at_(config.qos_p99_limit * kBoostFraction),
        release_at_(config.qos_p99_limit * kReleaseFraction) {
    // The FBB boost point: forward bias at the nominal top operating
    // point's supply shifts Vth down and lifts the reachable frequency
    // *above* the DVFS maximum (paper Sec. II-A item 2: computation
    // spikes). Clamped into the base flavor's feasible range so the
    // power model can still assign it a voltage.
    const auto& base = manager.platform().tech();
    const tech::TechnologyModel fbb{tech::TechnologyParams::fdsoi28_fbb()};
    const Hertz lifted = fbb.frequency_at(base.voltage_for(f_boost_));
    const Hertz feasible_cap = base.max_frequency() * 0.95;
    if (lifted > f_boost_) f_boost_ = std::min(lifted, feasible_cap);
    // Boosted epochs are charged through the forward-biased device: the
    // supply stays at the nominal top voltage (that is the whole point
    // of the FBB spike response), and the bias's leakage penalty is what
    // the overdrive costs.
    boosted_manager_ = std::make_unique<pm::PowerManager>(
        manager.platform().with_tech(fbb), manager.curve());
  }

  [[nodiscard]] GovernorKind kind() const override { return GovernorKind::kNtcBoost; }
  [[nodiscard]] Hertz initial_frequency() const override { return f_opt_; }

  [[nodiscard]] Hertz decide(const EpochObservation& obs) override {
    boosted_ = next_boost_state(obs);
    return boosted_ ? f_boost_ : f_opt_;
  }

  [[nodiscard]] Hertz peek(const EpochObservation& obs) const override {
    return next_boost_state(obs) ? f_boost_ : f_opt_;
  }

  [[nodiscard]] Second transition_time(Hertz from, Hertz to) const override {
    if (from == to) return Second{0.0};
    // Boost engages through the forward-body-bias network, not a voltage
    // ramp: the sub-microsecond swing is exactly why the paper argues FBB
    // can serve computation spikes (Sec. II-A item 2).
    const Volt swing = tech::TechnologyParams::fdsoi28_fbb().body_bias;
    return tech::bias_transition_time(core_area_mm2(manager_), Volt{0.0}, swing);
  }

  [[nodiscard]] bool sleeps_when_idle() const override { return true; }
  [[nodiscard]] bool boosted() const override { return boosted_; }

  [[nodiscard]] Joule epoch_energy(const pm::PowerManager& manager, Hertz f, double duty,
                                   Second duration) const override {
    if (f == f_boost_ && f_boost_ > manager.curve().back().frequency) {
      return boosted_manager_->energy_for_duty(f, duty, duration);
    }
    return FleetGovernor::epoch_energy(manager, f, duty, duration);
  }

 private:
  /// Hysteretic boost state transition as a pure function of (current
  /// state, observation): decide() commits it, peek() previews it.
  [[nodiscard]] bool next_boost_state(const EpochObservation& obs) const {
    // Guardband dominates: a chip that just detected an error must not
    // run FBB overdrive — the bias's Vth shift eats exactly the timing
    // slack the guardband exists to restore.
    if (guardbanded()) return false;
    // Two boost triggers: measured tail pressure (the SLO feedback) and
    // measured saturation (the leading indicator — a pinned fleet that
    // has run out of capacity will violate a lagging p99 before the p99
    // can report it). Absent any completion, the tail contributes no
    // signal and only utilization speaks.
    const bool tail_signal = obs.p99.value() > 0.0;
    const bool pressure = (tail_signal && obs.p99 > boost_at_) ||
                          obs.utilization >= kBoostUtilization;
    const bool tail_calm = !tail_signal || obs.p99 < release_at_;
    if (!boosted_ && pressure) return true;
    if (boosted_ && tail_calm && obs.utilization < kReleaseUtilization) return false;
    return boosted_;
  }

  const pm::PowerManager& manager_;
  Hertz f_opt_;
  Hertz f_boost_;
  Second boost_at_;
  Second release_at_;
  std::unique_ptr<pm::PowerManager> boosted_manager_;
  bool boosted_ = false;
};

}  // namespace

std::unique_ptr<FleetGovernor> make_governor(const GovernorConfig& config,
                                             const pm::PowerManager& manager) {
  config.validate();
  std::unique_ptr<FleetGovernor> governor;
  switch (config.kind) {
    case GovernorKind::kNone:
      throw ModelError("kNone is the open-loop marker, not a governor");
    case GovernorKind::kFixedMax:
      governor = std::make_unique<FixedMaxGovernor>(manager);
      break;
    case GovernorKind::kOndemandDvfs:
      governor = std::make_unique<OndemandGovernor>(manager);
      break;
    case GovernorKind::kNtcBoost:
      governor = std::make_unique<NtcBoostGovernor>(config, manager);
      break;
  }
  if (!governor) throw ModelError("unknown governor kind");
  governor->configure_guardband(config.guardband_margin);
  return governor;
}

}  // namespace ntserv::ctrl
