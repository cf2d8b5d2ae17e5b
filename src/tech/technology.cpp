#include "tech/technology.hpp"

#include <algorithm>
#include <cmath>

namespace ntserv::tech {

const char* to_string(Process p) {
  switch (p) {
    case Process::kBulk28: return "28nm bulk";
    case Process::kFdSoi28: return "28nm UTBB FD-SOI";
  }
  return "unknown";
}

TechnologyParams TechnologyParams::bulk28() {
  TechnologyParams p;
  p.name = "Bulk";
  p.process = Process::kBulk28;
  p.vth0 = Volt{0.46};
  p.vmin_functional = Volt{0.60};
  p.vmax = Volt{1.40};
  p.drive = Hertz{4.75e9};
  p.core_ceff_farads = 0.73e-9;  // bulk burns more energy/cycle than FD-SOI
  p.leak_i0_amps = 75.0;
  // Bulk has no useful body-bias range at 28nm (well leakage dominates).
  p.body_bias_min = Volt{0.0};
  p.body_bias_max = Volt{0.0};
  return p;
}

TechnologyParams TechnologyParams::fdsoi28() {
  TechnologyParams p;
  p.name = "FD-SOI";
  p.process = Process::kFdSoi28;
  p.vth0 = Volt{0.40};
  p.vmin_functional = Volt{0.50};
  p.vmax = Volt{1.30};
  p.drive = Hertz{5.0e9};
  p.core_ceff_farads = 0.65e-9;
  p.leak_i0_amps = 57.0;
  // Flip-well (LVT) flavor: FBB only, up to +3 V (paper Sec. II-A).
  p.body_bias_min = Volt{0.0};
  p.body_bias_max = Volt{3.0};
  return p;
}

TechnologyParams TechnologyParams::fdsoi28_fbb(Volt vbb) {
  TechnologyParams p = fdsoi28();
  NTSERV_EXPECTS(vbb.value() >= 0.0 && vbb <= p.body_bias_max,
                 "flip-well FD-SOI supports forward body bias in [0, 3] V");
  p.name = "FD-SOI+FBB";
  p.body_bias = vbb;
  return p;
}

TechnologyParams TechnologyParams::fdsoi28_cw() {
  TechnologyParams p = fdsoi28();
  p.name = "FD-SOI-CW";
  // Conventional-well RVT devices: higher Vth, reverse body bias down to
  // -3 V (paper Sec. II-A), marginal forward capability.
  p.vth0 = Volt{0.45};
  p.drive = Hertz{4.9e9};
  p.body_bias_min = Volt{-3.0};
  p.body_bias_max = Volt{0.3};
  return p;
}

TechnologyModel::TechnologyModel(TechnologyParams params) : params_(std::move(params)) {
  NTSERV_EXPECTS(params_.vth0.value() > 0.0, "Vth0 must be positive");
  NTSERV_EXPECTS(params_.vmax > params_.vmin_functional, "Vmax must exceed Vmin");
  NTSERV_EXPECTS(params_.alpha > 0.0, "alpha must be positive");
  NTSERV_EXPECTS(params_.drive.value() > 0.0, "drive constant must be positive");
  NTSERV_EXPECTS(params_.subthreshold_sw.value() > 0.0, "subthreshold slope must be positive");
  NTSERV_EXPECTS(params_.body_bias >= params_.body_bias_min &&
                     params_.body_bias <= params_.body_bias_max,
                 "body bias outside the flavor's supported range");
  NTSERV_EXPECTS(vth_eff().value() > 0.0, "body bias drove Vth_eff non-positive");
  // Note: strong RBB may raise Vth_eff above the functional Vmin. That is a
  // legal *retention* configuration (state-retentive sleep, paper Sec. II-A
  // item 3): frequency_at() reports 0 Hz and only leakage queries are
  // meaningful.
}

Volt TechnologyModel::vth_eff() const {
  return params_.vth0 - Volt{params_.bb_vth_per_volt * params_.body_bias.value()};
}

Hertz TechnologyModel::frequency_at(Volt vdd) const {
  const Volt vth = vth_eff();
  if (vdd < params_.vmin_functional || vdd <= vth) return Hertz{0.0};
  const double overdrive = vdd.value() - vth.value();
  return Hertz{params_.drive.value() * std::pow(overdrive, params_.alpha) / vdd.value()};
}

Hertz TechnologyModel::max_frequency() const { return frequency_at(params_.vmax); }

Hertz TechnologyModel::min_vdd_frequency() const {
  return frequency_at(params_.vmin_functional);
}

bool TechnologyModel::feasible(Hertz f) const {
  return f.value() > 0.0 && f <= max_frequency();
}

Volt TechnologyModel::voltage_for(Hertz f) const {
  NTSERV_EXPECTS(f.value() > 0.0, "frequency must be positive");
  NTSERV_EXPECTS(f <= max_frequency(),
                 "requested frequency exceeds the technology's Vmax capability");
  // Below the Vmin corner the supply cannot be lowered further: the part
  // idles at Vmin and simply clocks slower.
  if (f <= min_vdd_frequency()) return params_.vmin_functional;

  // frequency_at is strictly increasing in vdd above Vth; bisect.
  double lo = params_.vmin_functional.value();
  double hi = params_.vmax.value();
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (frequency_at(Volt{mid}) < f) lo = mid; else hi = mid;
  }
  return Volt{hi};
}

double TechnologyModel::leakage_current_amps(Volt vdd) const {
  const double vth = vth_eff().value();
  const double arg = (params_.dibl * vdd.value() - vth) / params_.subthreshold_sw.value();
  return params_.leak_i0_amps * std::exp(arg);
}

Watt TechnologyModel::leakage_power(Volt vdd) const {
  return Watt{leakage_current_amps(vdd) * vdd.value()};
}

Watt TechnologyModel::dynamic_power(Volt vdd, Hertz f, double activity) const {
  NTSERV_EXPECTS(activity >= 0.0 && activity <= 1.0, "activity factor must be in [0,1]");
  return Watt{activity * params_.core_ceff_farads * vdd.value() * vdd.value() * f.value()};
}

Watt TechnologyModel::core_power(Hertz f, double activity) const {
  const Volt v = voltage_for(f);
  return dynamic_power(v, f, activity) + leakage_power(v);
}

TechnologyModel TechnologyModel::with_body_bias(Volt vbb) const {
  TechnologyParams p = params_;
  NTSERV_EXPECTS(vbb >= p.body_bias_min && vbb <= p.body_bias_max,
                 "body bias outside the flavor's supported range");
  p.body_bias = vbb;
  return TechnologyModel{p};
}

}  // namespace ntserv::tech
