// 28nm process/device models for near-threshold server cores.
//
// Reproduces the paper's Fig. 1 methodology: a transregional alpha-power-law
// frequency model plus an exponential subthreshold-leakage model, calibrated
// per technology flavor (28nm bulk, UTBB FD-SOI, FD-SOI with forward body
// bias) against the anchor points quoted in the paper:
//
//   * bulk A57 has timing failures below ~0.6 V (cannot operate at 0.5 V);
//   * FD-SOI reaches ~100 MHz at 0.5 V;
//   * FD-SOI with FBB exceeds 500 MHz at 0.5 V;
//   * body bias shifts Vth by 85 mV per volt of bias (paper Sec. II-A);
//   * reverse body bias cuts leakage by ~an order of magnitude;
//   * a 36-core chip dissipates ~175 W at the top of the frequency range.
//
// The alpha exponent is 2.0: in the near-threshold ("transregional") regime
// the effective velocity-saturation exponent rises well above the
// super-threshold ~1.3, and a single alpha=2 fit spans 0.5-1.4 V with the
// correct ~30x frequency span the paper's Fig. 1 exhibits.
#pragma once

#include <string>

#include "common/error.hpp"
#include "common/units.hpp"

namespace ntserv::tech {

/// Process family of a technology flavor.
enum class Process { kBulk28, kFdSoi28 };

[[nodiscard]] const char* to_string(Process p);

/// Device-level calibration constants for one technology flavor.
struct TechnologyParams {
  std::string name;
  Process process = Process::kFdSoi28;

  /// Zero-bias threshold voltage.
  Volt vth0{0.40};
  /// Minimum functional supply (limited by L1 SRAM margin, paper Sec. V-B1).
  Volt vmin_functional{0.50};
  /// Maximum rated supply.
  Volt vmax{1.30};

  /// Transregional alpha-power exponent: f = k * (Vdd - Vth_eff)^alpha / Vdd.
  double alpha = 2.0;
  /// Drive constant k (frequency scale of the alpha-power law).
  Hertz drive{5.0e9};

  /// Effective switched capacitance of one Cortex-A57-class core (F/cycle),
  /// including its private L1 caches.
  double core_ceff_farads = 1.0e-9;

  /// Leakage current scale I0 (amperes) at the reference temperature: the
  /// prefactor of I_leak = I0 * exp((dibl*Vdd - Vth_eff) / subthreshold_sw).
  double leak_i0_amps = 57.0;
  /// DIBL coefficient (dimensionless dVth/dVdd).
  double dibl = 0.08;
  /// Subthreshold slope parameter n*vT in volts (~37 mV => ~85 mV/decade).
  Volt subthreshold_sw{0.037};

  /// Applied body-bias voltage; positive = forward (FBB), negative = reverse
  /// (RBB). Conventional-well FD-SOI supports RBB to -3 V, flip-well (LVT)
  /// supports FBB to +3 V (paper Sec. II-A).
  Volt body_bias{0.0};
  /// Threshold-voltage sensitivity to body bias: 85 mV per volt (paper).
  double bb_vth_per_volt = 0.085;
  /// Body-bias range supported by the well flavor.
  Volt body_bias_min{0.0};
  Volt body_bias_max{0.0};

  // ---- Calibrated flavors (the three curves of the paper's Fig. 1) ----

  /// 28nm bulk CMOS A57-class device.
  static TechnologyParams bulk28();
  /// 28nm UTBB FD-SOI, flip-well (LVT), zero body bias.
  static TechnologyParams fdsoi28();
  /// 28nm UTBB FD-SOI with forward body bias (default +1.5 V, giving
  /// >500 MHz at 0.5 V as in the paper).
  static TechnologyParams fdsoi28_fbb(Volt vbb = Volt{1.5});
  /// 28nm UTBB FD-SOI, conventional-well (RVT): supports reverse body bias
  /// down to -3 V for state-retentive sleep (paper Sec. II-A item 3).
  static TechnologyParams fdsoi28_cw();
};

/// Voltage-frequency-leakage model of one technology flavor.
///
/// Thread-compatible value type: all queries are const and cheap.
class TechnologyModel {
 public:
  explicit TechnologyModel(TechnologyParams params);

  [[nodiscard]] const TechnologyParams& params() const { return params_; }
  [[nodiscard]] const std::string& name() const { return params_.name; }

  /// Effective threshold voltage after body bias: Vth0 - 85mV/V * Vbb.
  [[nodiscard]] Volt vth_eff() const;

  /// Maximum clock frequency sustainable at the given supply voltage.
  /// Returns 0 Hz when vdd <= Vth_eff (no drive) or vdd below the
  /// functional minimum (SRAM failure).
  [[nodiscard]] Hertz frequency_at(Volt vdd) const;

  /// Minimum supply voltage able to sustain frequency `f`, clamped below by
  /// the functional minimum (running slower than the Vmin-frequency keeps
  /// Vdd at Vmin). Throws ModelError if `f` exceeds max_frequency().
  [[nodiscard]] Volt voltage_for(Hertz f) const;

  /// Frequency at the maximum rated supply.
  [[nodiscard]] Hertz max_frequency() const;
  /// Frequency at the minimum functional supply (the "NTC corner").
  [[nodiscard]] Hertz min_vdd_frequency() const;
  /// True when frequency `f` is reachable within the rated voltage range.
  [[nodiscard]] bool feasible(Hertz f) const;

  /// Subthreshold leakage current (A) of one core at supply `vdd`,
  /// including the body-bias Vth shift and DIBL.
  [[nodiscard]] double leakage_current_amps(Volt vdd) const;

  /// Leakage power (W) of one core at supply `vdd`.
  [[nodiscard]] Watt leakage_power(Volt vdd) const;

  /// Dynamic power (W) of one core switching at `f` under supply `vdd`,
  /// scaled by an activity factor in [0,1] (1 = fully active).
  [[nodiscard]] Watt dynamic_power(Volt vdd, Hertz f, double activity = 1.0) const;

  /// Total core power at the voltage the model assigns to frequency `f`.
  [[nodiscard]] Watt core_power(Hertz f, double activity = 1.0) const;

  /// Returns a copy of this model with a different body bias applied
  /// (clamped to the flavor's supported range is NOT done: out-of-range
  /// throws, matching the flip-well/conventional-well asymmetry).
  [[nodiscard]] TechnologyModel with_body_bias(Volt vbb) const;

 private:
  TechnologyParams params_;
};

}  // namespace ntserv::tech
