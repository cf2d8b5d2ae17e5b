// Fleet orchestration: autoscaling, fleet-wide power capping, and
// multi-fleet tech routing above dc::ClusterFleet.
//
// The paper's headline comparison — a 28nm FD-SOI NTC scale-out fleet vs
// a conventional high-frequency fleet — is static below this layer: chip
// count and tech point are fixed per run. This module makes the fleet
// elastic, as three deterministic controllers that all act at the
// existing epoch barrier (so orchestrated runs stay bit-identical for any
// NTSERV_THREADS, exactly like the governors they sit above):
//
//  * Autoscaler — powers chips up/down against measured epoch load.
//    A parked chip sits at the platform's deep-idle floor
//    (ServerPowerModel RBB-sleep power) instead of its governor's duty
//    cycle; waking one pays a realistic wake latency, charged at full
//    active power through the existing transition-stall machinery.
//    Scale-down drains first (no in-flight work is ever dropped) and is
//    hysteresis-gated so diurnal troughs don't flap; a faulted-down chip
//    is never unparked.
//
//  * PowerCapper — enforces a rack/fleet-level Watt cap the per-chip
//    ctrl::FleetGovernors must share: each barrier splits the cap into
//    per-chip budgets (weighted by queue depth, with a minimum share so
//    a momentarily-idle chip is not starved), and each chip clamps its
//    governor's decided frequency to the largest curve point whose
//    active power fits its budget. Cap-clamped chip-epochs and any
//    realized fleet-power excursions over the cap surface in
//    FleetResult.
//
//  * MultiFleetRouter — dispatches one arrival stream across chip
//    groups with different tech points (the paper's fdsoi28-NTC vs
//    bulk28-conventional comparison, made dynamic): off-peak, everything
//    consolidates onto the NTC group; at peak, latency-critical tenants
//    steer to the group that prefers them and batch work soaks the NTC
//    group, reusing the tenant steering classes.
//
// The controllers are deliberately ignorant of dc:: internals: they see
// per-chip ChipStatus snapshots and return plain decisions; ClusterFleet
// adapts both sides. That keeps this header free of dc includes and the
// controllers unit-testable without a fleet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "ctrl/governor.hpp"

namespace ntserv::obs {
class TraceSink;
}

namespace ntserv::orch {

/// Per-chip snapshot the fleet hands the controllers at an epoch barrier.
struct ChipStatus {
  int chip = 0;
  int group = 0;            ///< router group (0 when routing is off)
  bool down = false;        ///< crashed (fault::FaultInjector)
  bool parked = false;      ///< powered down by the autoscaler
  bool draining = false;    ///< excluded from dispatch, finishing its work
  int outstanding = 0;      ///< queued + in-service requests
  double utilization = 0.0; ///< last closed epoch's busy-core fraction
  /// Full-duty power at the bottom of the chip's DVFS grid: the least a
  /// serving chip can draw, and hence the least budget worth granting it
  /// (PowerCapper::split reserves these floors before the weighted split).
  Watt floor_power{0.0};
};

// ---------------------------------------------------------------------------
// Autoscaler
// ---------------------------------------------------------------------------

struct AutoscalerConfig {
  bool enabled = false;
  /// Never drain below this many serving (non-parked, non-down,
  /// non-draining) chips: the floor that holds the QoS bound through the
  /// trough.
  int min_active = 1;
  /// Scale up when the serving chips' mean epoch utilization reaches
  /// this; scale down (after hysteresis) when it falls to the low mark.
  double scale_up_utilization = 0.75;
  double scale_down_utilization = 0.30;
  /// Consecutive low-utilization epochs before one chip is drained: the
  /// flap guard that keeps a noisy diurnal trough from bouncing chips.
  int hysteresis_epochs = 3;
  /// Wake latency of a parked chip (deep-sleep exit + re-init), paid as
  /// a service stall charged at full active power.
  Second wake_latency{200e-6};
  /// Warm/cold sleep ladder: a chip parked for less than this is still
  /// *warm* (caches powered, PLL locked) and wakes at warm_wake_fraction
  /// of the full wake_latency. 0 disables the ladder (every wake cold).
  Second warm_sleep_window{0.0};
  double warm_wake_fraction = 0.25;
  /// Emergency response: a correlated domain outage wakes every parked
  /// (non-down) chip and cancels every drain at the same barrier,
  /// bypassing the hysteresis gate — survivors need the capacity *now*.
  bool emergency_wake = true;

  void validate() const;

  /// Wake latency for a chip that has been parked `parked_span_s`
  /// seconds: the warm fraction inside the warm window, full otherwise.
  [[nodiscard]] Second wake_latency_for(double parked_span_s) const;
};

enum class ScaleAction {
  kUnpark,      ///< power a parked chip back up (pays wake_latency)
  kCancelDrain, ///< a draining chip is needed again: return it to dispatch
  kDrain,       ///< stop dispatching to a chip; it parks once drained
  kPark,        ///< power a drained (idle) chip down to the sleep floor
};

[[nodiscard]] const char* to_string(ScaleAction a);

struct ScaleDecision {
  ScaleAction action;
  int chip;
};

/// Deterministic scale state machine, one step per epoch barrier. At most
/// one capacity change (unpark / cancel-drain / drain) per barrier, plus
/// parking any chip that finished draining — gradual moves keep the
/// feedback loop stable against its own wake/drain transients. An
/// `emergency` barrier (domain outage this epoch) suspends the gradualism:
/// every parked non-down chip wakes and every drain cancels at once.
class Autoscaler {
 public:
  explicit Autoscaler(AutoscalerConfig config);

  [[nodiscard]] std::vector<ScaleDecision> decide(const std::vector<ChipStatus>& chips,
                                                  bool emergency = false);

  [[nodiscard]] const AutoscalerConfig& config() const { return config_; }
  [[nodiscard]] int low_epochs() const { return low_epochs_; }

 private:
  AutoscalerConfig config_;
  int low_epochs_ = 0;
};

// ---------------------------------------------------------------------------
// Power capper
// ---------------------------------------------------------------------------

struct PowerCapConfig {
  bool enabled = false;
  /// Rack/fleet-level power bound (W) across all chips, including the
  /// sleep floor of parked chips.
  Watt fleet_cap{0.0};
  /// Minimum fraction of the distributable budget each serving chip is
  /// guaranteed (clamped to 1/serving_chips): a chip whose queue happens
  /// to be empty at the barrier must still afford a useful frequency.
  double min_share = 0.10;
  /// Optional per-group priority weight (indexed by ChipStatus::group;
  /// empty = every group at 1.0): scales the queue-depth weight, so a
  /// latency-critical group keeps budget when the cap binds during an
  /// emergency re-split over the survivors.
  std::vector<double> group_weights;

  void validate() const;

  /// The priority weight of `group` (1.0 beyond the configured table).
  [[nodiscard]] double group_weight(int group) const;
};

/// Splits the fleet cap into per-chip Watt budgets at each barrier.
/// Stateless: the split is a pure function of the snapshot, so the cap
/// follows load shifts within one epoch.
class PowerCapper {
 public:
  explicit PowerCapper(PowerCapConfig config);

  /// Per-chip budgets (index-aligned with `chips`). `reserved` is the
  /// power already committed below the cap (the parked chips' sleep
  /// floor). Each serving (non-parked, non-down) chip is granted its
  /// floor_power off the top — a budget below the bottom of the DVFS
  /// grid is just a violation printed in advance — and the headroom is
  /// split proportionally to group_weight x (1 + outstanding), with the
  /// min_share floor. Parked and down chips get a zero budget.
  [[nodiscard]] std::vector<Watt> split(const std::vector<ChipStatus>& chips,
                                        Watt reserved) const;

  [[nodiscard]] const PowerCapConfig& config() const { return config_; }

  /// Attach a trace sink (fleet-wired; may be null): every split emits a
  /// kCapSplit event (id = serving chips, value = distributable Watts)
  /// stamped with the sink's current time.
  void attach_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  PowerCapConfig config_;
  obs::TraceSink* trace_ = nullptr;
};

// ---------------------------------------------------------------------------
// Multi-fleet router
// ---------------------------------------------------------------------------

/// One homogeneous chip group inside a routed fleet: its own tech point
/// and governor (ctrl::GovernorConfig carries the technology flavor).
struct FleetGroup {
  std::string name = "ntc";
  int servers = 0;
  /// Per-group control: tech flavor, curve, governor kind. All groups
  /// must share epoch_quanta with the fleet's top-level governor config
  /// (the epoch barrier is fleet-wide).
  ctrl::GovernorConfig governor;
  /// At peak, latency-critical tenants steer to the (single) group with
  /// this set — the conventional high-frequency fleet of the paper's
  /// comparison. Batch work soaks the NTC group either way.
  bool prefers_latency_critical = false;

  void validate() const;
};

struct RouterConfig {
  bool enabled = false;
  std::vector<FleetGroup> groups;
  /// Group that soaks consolidated off-peak load (and batch work at
  /// peak): the NTC fleet.
  int ntc_group = 0;
  /// Below this fleet-wide serving utilization the epoch counts as
  /// off-peak and everything consolidates onto ntc_group.
  double offpeak_utilization = 0.35;

  void validate() const;
};

/// Routing outcome of one epoch: what the fleet looked like and where the
/// epoch's dispatches went.
struct RouterEpoch {
  std::uint64_t epoch = 0;
  double utilization = 0.0; ///< serving chips' mean busy-core fraction
  bool offpeak = false;     ///< preference that held *during* this epoch
  std::vector<std::uint64_t> routed; ///< dispatches per group this epoch
  std::uint64_t fallback = 0; ///< dispatches that left their preferred group

  bool operator==(const RouterEpoch&) const = default;
};

/// Steers dispatch between tech-heterogeneous chip groups. The standing
/// preference updates at each epoch barrier from measured utilization;
/// between barriers every dispatch consults it (and records itself for
/// the epoch's RouterEpoch).
class MultiFleetRouter {
 public:
  explicit MultiFleetRouter(RouterConfig config);

  /// Group this dispatch should target under the standing preference.
  [[nodiscard]] int preferred_group(bool latency_critical) const;

  /// Record one dispatch (fallback = it could not be placed in its
  /// preferred group and went elsewhere).
  void note_dispatch(int group, bool fallback);

  /// Close the routing epoch: flush the dispatch counters into a
  /// RouterEpoch stamped with the epoch's standing preference, then
  /// update the preference from the fresh utilization measurement.
  void observe_epoch(std::uint64_t epoch, const std::vector<ChipStatus>& chips);

  [[nodiscard]] bool offpeak() const { return offpeak_; }
  [[nodiscard]] const std::vector<RouterEpoch>& epochs() const { return epochs_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }

 private:
  RouterConfig config_;
  int peak_group_ = 0;  ///< the prefers_latency_critical group
  bool offpeak_ = true; ///< nothing measured yet: consolidate on NTC
  std::vector<std::uint64_t> routed_;
  std::uint64_t fallback_ = 0;
  std::vector<RouterEpoch> epochs_;
};

// ---------------------------------------------------------------------------
// Top-level orchestration config (dc::FleetConfig::orchestration)
// ---------------------------------------------------------------------------

struct OrchestratorConfig {
  AutoscalerConfig autoscaler;
  PowerCapConfig cap;
  RouterConfig router;

  [[nodiscard]] bool any() const {
    return autoscaler.enabled || cap.enabled || router.enabled;
  }
  void validate() const;
};

}  // namespace ntserv::orch
