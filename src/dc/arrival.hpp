// Open-loop arrival processes for the request-level serving layer.
//
// The paper evaluates server clusters against 99th-percentile QoS limits
// under "heavy traffic from millions of users"; this module provides the
// arrival side of that traffic as deterministic generators of absolute
// arrival times (seconds). Four analytic families cover the scenario space
// — fixed-spacing (closed-form baseline), Poisson (memoryless arrivals,
// Sec. V-A), 2-state MMPP (request storms / bursty tenants)
// and diurnal non-homogeneous Poisson (day/night load, Sec. V-C) — plus a
// Bitbrains-backed mode that aggregates the per-VM CPU demand of a sampled
// business-critical VM population (Shen et al., CCGrid'15; paper
// Sec. III-A2) into the offered request rate.
//
// Every process draws from a Xoshiro stream seeded via derive_seed, so a
// scenario's arrival sequence is a pure function of its configuration and
// seed — independent of NTSERV_THREADS or evaluation order.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "workload/bitbrains.hpp"

namespace ntserv::dc {

enum class ArrivalKind {
  kDeterministic,  ///< fixed interarrival 1/rate
  kPoisson,        ///< exponential interarrivals at `rate`
  kMmpp,           ///< 2-state Markov-modulated Poisson (bursty)
  kDiurnal,        ///< non-homogeneous Poisson, sinusoidal day/night rate
  kVmPopulation,   ///< Poisson at the aggregate rate of a Bitbrains VM set
};

[[nodiscard]] const char* to_string(ArrivalKind k);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Long-run mean arrival rate in requests/second (for kDiurnal this is
  /// the peak rate; for kVmPopulation it is ignored in favour of the
  /// population aggregate).
  double rate = 1000.0;

  // ---- MMPP (kMmpp) ----
  /// Burst-state rate as a multiple of `rate`.
  double burst_rate_multiplier = 4.0;
  /// Long-run fraction of time spent in the burst state.
  double burst_fraction = 0.1;
  /// Mean dwell time per burst.
  Second burst_dwell{0.05};

  // ---- Diurnal (kDiurnal) ----
  /// Trough rate as a fraction of the peak `rate`.
  double diurnal_trough = 0.2;
  /// Length of one synthetic "day" (scaled for simulation turnaround).
  Second diurnal_period{1.0};
  /// Phase offset as a fraction of the period, in [0, 1). Two tenants at
  /// phase 0 and 0.5 peak in antiphase — the consolidation scenarios use
  /// this to co-locate day-peaking and night-peaking traffic on one chip.
  double diurnal_phase = 0.0;

  // ---- VM population (kVmPopulation) ----
  /// Number of VMs sampled from the Bitbrains model.
  int vm_population = 64;
  /// Request rate of one fully-busy VM (req/s); a VM at utilization u
  /// offers u * vm_peak_rate.
  double vm_peak_rate = 50.0;
  workload::BitbrainsParams bitbrains{};

  void validate() const;
};

/// Deterministic generator of monotone absolute arrival times.
class ArrivalProcess {
 public:
  ArrivalProcess(ArrivalConfig config, std::uint64_t seed);

  /// Absolute time of the next arrival; strictly monotone in expectation,
  /// non-decreasing always.
  Second next();

  [[nodiscard]] const ArrivalConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t generated() const { return count_; }

  /// The realized long-run mean rate: `rate` for the stationary kinds,
  /// the time-averaged sinusoid for kDiurnal, the population aggregate
  /// for kVmPopulation.
  [[nodiscard]] double effective_rate() const { return effective_rate_; }

 private:
  [[nodiscard]] double mmpp_state_rate() const;
  [[nodiscard]] double diurnal_rate_at(double t) const;
  /// Mean dwell of the MMPP normal state, fixed by the burst fraction:
  /// pi_b = burst_dwell / (burst_dwell + normal_dwell).
  [[nodiscard]] double normal_dwell_mean() const {
    return config_.burst_dwell.value() * (1.0 - config_.burst_fraction) /
           config_.burst_fraction;
  }

  ArrivalConfig config_;
  Xoshiro256StarStar rng_;
  double now_s_ = 0.0;
  double effective_rate_ = 0.0;
  // MMPP state machine.
  bool in_burst_ = false;
  double state_until_s_ = 0.0;
  double normal_rate_ = 0.0;
  double burst_rate_ = 0.0;
  std::uint64_t count_ = 0;
};

}  // namespace ntserv::dc
