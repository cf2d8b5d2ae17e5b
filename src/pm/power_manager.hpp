// Power management policies over time-varying load.
//
// The paper's Sec. II-A lists the FD-SOI knobs (energy-optimal bias, fast
// FBB boost, state-retentive RBB sleep) and Sec. V-C argues servers must
// become energy proportional. This module composes those pieces: given a
// demand trace (fraction of peak throughput needed per epoch) and a
// measured UIPS(f) curve, it simulates classic power-management policies
// and integrates server energy:
//
//  * race-to-idle  — run at f_max, then drop the cores into RBB sleep;
//  * DVFS-follow   — run each epoch at the slowest frequency meeting demand
//                    (the "ondemand" governor ideal);
//  * NTC-wide      — pin the frequency at the server-efficiency optimum and
//                    duty-cycle around it, boosting only when demand
//                    exceeds the optimum's throughput (the paper's thesis).
//
// Transition overheads use the body-bias/DVFS transition-time models.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "power/server_power.hpp"
#include "qos/qos.hpp"

namespace ntserv::pm {

/// Demand trace: per-epoch fraction of the platform's peak throughput.
struct LoadTrace {
  Second epoch{1.0};
  std::vector<double> demand;  ///< each in [0, 1]

  void validate() const;

  /// Smooth diurnal (day/night) pattern over `epochs` epochs: sinusoid
  /// between `low` and `high` utilization.
  static LoadTrace diurnal(int epochs, double low = 0.15, double high = 0.85);
};

enum class Policy {
  kRaceToIdle,   ///< f_max + RBB sleep
  kDvfsFollow,   ///< slowest f meeting each epoch's demand
  kNtcWide,      ///< pin at the efficiency optimum, boost over it on demand
  kFixedMax,     ///< always f_max, never sleep (the unmanaged baseline)
};

[[nodiscard]] const char* to_string(Policy p);

/// Per-epoch decision record.
struct EpochDecision {
  Hertz frequency;
  double duty = 1.0;          ///< active fraction of the epoch
  bool sleeps = false;        ///< idle remainder in RBB sleep
  bool met_demand = true;
  Watt avg_power;             ///< epoch-average server power

  bool operator==(const EpochDecision&) const = default;
};

/// Aggregate outcome of one policy over a trace.
struct PolicyResult {
  Policy policy;
  Joule energy;               ///< total server energy over the trace
  Watt avg_power;
  int violations = 0;         ///< epochs whose demand could not be met
  double avg_frequency_ghz = 0.0;
  std::vector<EpochDecision> decisions;
};

/// Throughput curve sample (measured UIPS at a frequency).
using UipsCurve = std::vector<qos::UipsSample>;

/// Policy simulator over a fixed platform and throughput curve.
class PowerManager {
 public:
  PowerManager(power::ServerPowerModel platform, UipsCurve curve);

  [[nodiscard]] const UipsCurve& curve() const { return curve_; }
  [[nodiscard]] const power::ServerPowerModel& platform() const { return platform_; }

  /// Peak chip throughput (UIPS at the highest curve frequency).
  [[nodiscard]] double peak_uips() const;

  /// Interpolated UIPS at frequency f (clamped to the curve's range).
  [[nodiscard]] double uips_at(Hertz f) const;

  /// Slowest curve frequency delivering at least `uips`; nullopt if the
  /// curve cannot deliver it anywhere.
  [[nodiscard]] std::optional<Hertz> frequency_for_uips(double uips) const;

  /// Like frequency_for_uips, but snapped *up* to the curve's own grid
  /// (a real DVFS driver exposes discrete operating points, not the
  /// interpolated continuum) and clamped to the top point when demand
  /// exceeds the curve. The runtime governors (src/ctrl) pick from this.
  [[nodiscard]] Hertz grid_frequency_for_uips(double uips) const;

  /// Frequency maximizing server-scope efficiency on the curve,
  /// optionally restricted to points delivering at least `min_uips`
  /// (the capacity-floored optimum the runtime governors pin — see
  /// kNtcMinCapacity in ctrl/governor.cpp). Falls back to the top
  /// point when nothing meets the floor.
  [[nodiscard]] Hertz efficiency_optimal_frequency(double min_uips = 0.0) const;

  /// Average server power running continuously at f (activity-scaled).
  [[nodiscard]] Watt active_power(Hertz f) const;
  /// Server power with cores in RBB sleep (uncore + DRAM background stay).
  [[nodiscard]] Watt sleep_power() const;

  /// Simulate one policy over a trace.
  [[nodiscard]] PolicyResult run(const LoadTrace& trace, Policy policy) const;

  /// Energy of one server over `duration` with a measured duty cycle:
  /// active at `f` for `duty` of the time, RBB sleep for the rest. The
  /// request-level fleet (src/dc) feeds its per-server active fractions
  /// through this hook, connecting measured serving load to the paper's
  /// energy-proportionality analysis.
  [[nodiscard]] Joule energy_for_duty(Hertz f, double duty, Second duration) const;

  /// Energy of waking a parked (deep-idle) server: the wake latency is a
  /// service stall charged at full active power at the resume frequency
  /// (voltage domains and uncore come up before any work is served). The
  /// orchestration autoscaler (src/orch) reports this slice per unpark.
  [[nodiscard]] Joule wake_energy(Hertz f, Second wake_latency) const;

 private:
  power::ServerPowerModel platform_;
  UipsCurve curve_;
};

}  // namespace ntserv::pm
