#include "pm/power_manager.hpp"

#include <algorithm>
#include <cmath>

#include "tech/body_bias.hpp"

namespace ntserv::pm {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

void LoadTrace::validate() const {
  NTSERV_EXPECTS(!demand.empty(), "load trace must have at least one epoch");
  NTSERV_EXPECTS(epoch.value() > 0.0, "epoch length must be positive");
  for (double d : demand) {
    NTSERV_EXPECTS(d >= 0.0 && d <= 1.0, "demand must be a fraction of peak");
  }
}

LoadTrace LoadTrace::diurnal(int epochs, double low, double high) {
  NTSERV_EXPECTS(epochs > 0, "need at least one epoch");
  NTSERV_EXPECTS(low <= high, "low watermark above high");
  LoadTrace t;
  t.demand.reserve(static_cast<std::size_t>(epochs));
  for (int i = 0; i < epochs; ++i) {
    const double phase = 2.0 * kPi * static_cast<double>(i) / static_cast<double>(epochs);
    t.demand.push_back(low + (high - low) * 0.5 * (1.0 - std::cos(phase)));
  }
  return t;
}

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kRaceToIdle: return "race-to-idle";
    case Policy::kDvfsFollow: return "DVFS-follow";
    case Policy::kNtcWide: return "NTC-wide";
    case Policy::kFixedMax: return "fixed-max";
  }
  return "unknown";
}

PowerManager::PowerManager(power::ServerPowerModel platform, UipsCurve curve)
    : platform_(std::move(platform)), curve_(std::move(curve)) {
  NTSERV_EXPECTS(curve_.size() >= 2, "UIPS curve needs at least two points");
  std::sort(curve_.begin(), curve_.end(),
            [](const qos::UipsSample& a, const qos::UipsSample& b) {
              return a.frequency < b.frequency;
            });
  for (std::size_t i = 1; i < curve_.size(); ++i) {
    NTSERV_EXPECTS(curve_[i].uips >= curve_[i - 1].uips,
                   "UIPS curve must be non-decreasing in frequency");
  }
}

double PowerManager::peak_uips() const { return curve_.back().uips; }

double PowerManager::uips_at(Hertz f) const {
  if (f <= curve_.front().frequency) return curve_.front().uips;
  if (f >= curve_.back().frequency) return curve_.back().uips;
  for (std::size_t i = 1; i < curve_.size(); ++i) {
    if (f <= curve_[i].frequency) {
      const double t = (f.value() - curve_[i - 1].frequency.value()) /
                       (curve_[i].frequency.value() - curve_[i - 1].frequency.value());
      return curve_[i - 1].uips + t * (curve_[i].uips - curve_[i - 1].uips);
    }
  }
  return curve_.back().uips;
}

std::optional<Hertz> PowerManager::frequency_for_uips(double uips) const {
  if (uips > peak_uips()) return std::nullopt;
  if (uips <= curve_.front().uips) return curve_.front().frequency;
  for (std::size_t i = 1; i < curve_.size(); ++i) {
    if (curve_[i].uips >= uips) {
      const double t = (uips - curve_[i - 1].uips) / (curve_[i].uips - curve_[i - 1].uips);
      return Hertz{curve_[i - 1].frequency.value() +
                   t * (curve_[i].frequency.value() - curve_[i - 1].frequency.value())};
    }
  }
  return curve_.back().frequency;
}

Hertz PowerManager::grid_frequency_for_uips(double uips) const {
  for (const auto& s : curve_) {
    if (s.uips >= uips) return s.frequency;
  }
  return curve_.back().frequency;
}

Hertz PowerManager::efficiency_optimal_frequency(double min_uips) const {
  Hertz best = curve_.back().frequency;
  double best_eff = 0.0;
  bool found = false;
  for (const auto& s : curve_) {
    if (s.uips < min_uips) continue;
    const double eff = s.uips / active_power(s.frequency).value();
    if (!found || eff > best_eff) {
      best_eff = eff;
      best = s.frequency;
      found = true;
    }
  }
  return best;
}

Watt PowerManager::active_power(Hertz f) const {
  constexpr double kCoreActivity = 0.5;  // core switching-activity factor
  power::ActivityVector a;
  a.core_activity = kCoreActivity;
  // Scale memory/LLC traffic with throughput: a first-order activity model
  // sufficient for policy comparison (the detailed path is ServerSimulator).
  const double scale = uips_at(f) / peak_uips();
  a.llc_reads_per_s = 2e9 * scale;
  a.llc_writes_per_s = 5e8 * scale;
  a.xbar_flits_per_s = 5e9 * scale;
  a.dram_read_bw = 20e9 * scale;
  a.dram_write_bw = 5e9 * scale;
  return platform_.evaluate(f, a).server();
}

Watt PowerManager::sleep_power() const {
  return platform_.evaluate_sleep(Volt{0.5}, Volt{-2.0}).server();
}

PolicyResult PowerManager::run(const LoadTrace& trace, Policy policy) const {
  trace.validate();
  const Hertz f_max = curve_.back().frequency;
  const Hertz f_opt = efficiency_optimal_frequency();
  const double peak = peak_uips();
  const Watt p_sleep = sleep_power();

  // Sleep entry/exit overhead: two body-bias swings per sleep episode
  // (enter + exit), charged as extra active time at f_max.
  const Second bb_transition =
      tech::bias_transition_time(5.0, Volt{0.0}, Volt{-2.0});

  PolicyResult result;
  result.policy = policy;
  double energy_j = 0.0;
  double freq_sum = 0.0;

  for (double demand : trace.demand) {
    EpochDecision d;
    const double needed = demand * peak;

    switch (policy) {
      case Policy::kFixedMax: {
        d.frequency = f_max;
        d.duty = 1.0;
        d.sleeps = false;
        d.avg_power = active_power(f_max);
        break;
      }
      case Policy::kRaceToIdle: {
        d.frequency = f_max;
        d.duty = std::min(1.0, needed / uips_at(f_max));
        d.sleeps = d.duty < 1.0;
        const double overhead =
            d.sleeps ? 2.0 * bb_transition.value() / trace.epoch.value() : 0.0;
        const double active = std::min(1.0, d.duty + overhead);
        d.avg_power = active_power(f_max) * active + p_sleep * (1.0 - active);
        break;
      }
      case Policy::kDvfsFollow: {
        const auto f = frequency_for_uips(needed);
        d.frequency = f.value_or(f_max);
        d.met_demand = f.has_value();
        d.duty = 1.0;
        d.sleeps = false;
        d.avg_power = active_power(d.frequency);
        break;
      }
      case Policy::kNtcWide: {
        if (needed <= uips_at(f_opt)) {
          // Duty-cycle around the efficiency optimum with RBB sleep.
          d.frequency = f_opt;
          d.duty = uips_at(f_opt) > 0 ? needed / uips_at(f_opt) : 0.0;
          d.sleeps = d.duty < 1.0;
          const double overhead =
              d.sleeps ? 2.0 * bb_transition.value() / trace.epoch.value() : 0.0;
          const double active = std::min(1.0, d.duty + overhead);
          d.avg_power = active_power(f_opt) * active + p_sleep * (1.0 - active);
        } else {
          // Boost above the optimum only when demand requires it.
          const auto f = frequency_for_uips(needed);
          d.frequency = f.value_or(f_max);
          d.met_demand = f.has_value();
          d.duty = 1.0;
          d.avg_power = active_power(d.frequency);
        }
        break;
      }
    }

    if (!d.met_demand) ++result.violations;
    energy_j += d.avg_power.value() * trace.epoch.value();
    freq_sum += in_ghz(d.frequency);
    result.decisions.push_back(d);
  }

  result.energy = Joule{energy_j};
  result.avg_power =
      Watt{energy_j / (trace.epoch.value() * static_cast<double>(trace.demand.size()))};
  result.avg_frequency_ghz = freq_sum / static_cast<double>(trace.demand.size());
  return result;
}

Joule PowerManager::energy_for_duty(Hertz f, double duty, Second duration) const {
  NTSERV_EXPECTS(duty >= 0.0 && duty <= 1.0, "duty must be in [0,1]");
  NTSERV_EXPECTS(duration.value() >= 0.0, "duration must be non-negative");
  return active_power(f) * (duration * duty) + sleep_power() * (duration * (1.0 - duty));
}

Joule PowerManager::wake_energy(Hertz f, Second wake_latency) const {
  NTSERV_EXPECTS(wake_latency.value() >= 0.0, "wake latency must be non-negative");
  return active_power(f) * wake_latency;
}

}  // namespace ntserv::pm
