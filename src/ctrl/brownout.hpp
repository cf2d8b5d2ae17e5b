// Overload brownout: graceful degradation when offered load outruns the
// surviving capacity.
//
// A correlated failure (fault::FaultDomain — a rack/PDU loss) hands the
// surviving chips the dead domain's whole load at once. Flat queue-depth
// shedding (ctrl::AdmissionController) treats every tenant alike, so the
// latency-critical tenant pays the same overload tax as batch analytics.
// BrownoutController instead walks a *priority ladder* at the epoch
// barrier: shed fresh batch arrivals first, then relax batch QoS budgets
// (longer timeouts, no batch hedges — retry and hedge storms amplify the
// overload they react to), and finally admit latency-critical traffic
// only. Hysteresis gates re-entry so the ladder does not flap against
// its own shedding.
//
// The per-chip CircuitBreaker is the chip-granular companion: a chip
// whose recent timeout/error rate trips the threshold stops receiving
// dispatches (open), dwells, then lets a probe trickle through
// (half-open) and closes again on sustained success — the standard
// closed/open/half-open machine, evaluated only at the epoch barrier
// (plus the deterministic in-loop timeout events) so runs stay
// bit-identical for any NTSERV_THREADS.
//
// Both controllers are fleet-agnostic: they consume scalar signals the
// fleet computes (queue pressure, per-chip timeout rates) and return
// plain state; dc::ClusterFleet adapts both sides, exactly like the
// src/orch controllers.
#pragma once

#include <cstdint>

namespace ntserv::obs {
class TraceSink;
}

namespace ntserv::ctrl {

/// Ladder stages, in escalation order. Every stage keeps the previous
/// stage's restrictions and adds its own.
enum class BrownoutStage {
  kNormal = 0,        ///< no restriction
  kShedBatch = 1,     ///< fresh batch arrivals are shed on sight
  kRelaxBatchQos = 2, ///< + batch timeouts relaxed, batch hedges suppressed
  kCriticalOnly = 3,  ///< + batch retries shed too; all hedges suppressed
};

[[nodiscard]] const char* to_string(BrownoutStage s);

/// One stage count per ladder rung (kNormal..kCriticalOnly).
inline constexpr int kBrownoutStages = 4;

/// Relaxed-QoS factor: at kRelaxBatchQos and above, batch per-attempt
/// timeouts stretch by this multiple (fewer abandon/retry storms).
inline constexpr double kBatchTimeoutRelax = 4.0;

struct BrownoutConfig {
  bool enabled = false;
  /// Ceiling for the ladder (dse brownout arms: a shed-only arm clamps
  /// here at kShedBatch).
  BrownoutStage max_stage = BrownoutStage::kCriticalOnly;

  void validate() const;
};

/// Deterministic ladder state machine; one observe() per epoch barrier.
class BrownoutController {
 public:
  explicit BrownoutController(BrownoutConfig config);

  /// Feed the barrier's measured queue pressure; returns the stage that
  /// governs dispatch until the next barrier.
  BrownoutStage observe(double pressure);

  [[nodiscard]] BrownoutStage stage() const { return stage_; }
  [[nodiscard]] const BrownoutConfig& config() const { return config_; }
  [[nodiscard]] int calm_epochs() const { return calm_epochs_; }

  /// Attach a trace sink (fleet-wired; may be null): stage transitions
  /// emit kBrownoutStage events stamped with the sink's current time.
  void attach_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  BrownoutConfig config_;
  BrownoutStage stage_ = BrownoutStage::kNormal;
  int calm_epochs_ = 0;
  obs::TraceSink* trace_ = nullptr;
};

// ---------------------------------------------------------------------------
// Per-chip circuit breaker
// ---------------------------------------------------------------------------

enum class BreakerState {
  kClosed,   ///< dispatching normally, watching the error rate
  kOpen,     ///< dispatch blocked; dwelling before a probe
  kHalfOpen, ///< probing: dispatch allowed, judged per outcome
};

[[nodiscard]] const char* to_string(BreakerState s);

struct BreakerConfig {
  bool enabled = false;
};

/// One chip's breaker. Dispatch outcomes stream in between barriers
/// (record_*); the closed-state trip decision happens only at the
/// barrier (close_epoch), the half-open verdicts at the deterministic
/// in-loop events themselves.
class CircuitBreaker {
 public:
  [[nodiscard]] BreakerState state() const { return state_; }
  [[nodiscard]] bool allow_dispatch() const { return state_ != BreakerState::kOpen; }
  /// Open transitions since construction (trips + reopened probes).
  [[nodiscard]] int trips() const { return trips_; }

  void record_dispatch() { ++window_dispatches_; }
  /// A copy on this chip timed out or the chip reported an error.
  void record_failure();
  /// A copy on this chip completed and won its race.
  void record_success();

  /// Epoch-barrier evaluation: trip a closed breaker whose window rate
  /// crossed the threshold; advance an open breaker toward half-open.
  /// Resets the window counters either way.
  void close_epoch();

  /// Attach a trace sink (fleet-wired; may be null): state transitions
  /// emit kBreakerTrip / kBreakerHalfOpen / kBreakerClose for `chip`.
  void attach_trace(obs::TraceSink* trace, int chip) {
    trace_ = trace;
    chip_ = chip;
  }

 private:
  void open();

  obs::TraceSink* trace_ = nullptr;
  int chip_ = -1;
  BreakerState state_ = BreakerState::kClosed;
  std::uint64_t window_dispatches_ = 0;
  std::uint64_t window_failures_ = 0;
  int open_dwell_ = 0;
  int probe_wins_ = 0;
  int trips_ = 0;
};

}  // namespace ntserv::ctrl
