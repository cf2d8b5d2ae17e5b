#include "ctrl/brownout.hpp"

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace ntserv::ctrl {

const char* to_string(BrownoutStage s) {
  switch (s) {
    case BrownoutStage::kNormal: return "normal";
    case BrownoutStage::kShedBatch: return "shed-batch";
    case BrownoutStage::kRelaxBatchQos: return "relax-batch-qos";
    case BrownoutStage::kCriticalOnly: return "critical-only";
  }
  return "unknown";
}

void BrownoutConfig::validate() const {
  if (!enabled) return;
  NTSERV_EXPECTS(max_stage != BrownoutStage::kNormal,
                 "a brownout ladder clamped to normal cannot act; disable it");
}

BrownoutController::BrownoutController(BrownoutConfig config) : config_(config) {
  config_.validate();
}

namespace {
/// Queue pressure (fleet outstanding per serving core) at or above which
/// the ladder escalates one stage per epoch.
constexpr double kEnterPressure = 2.0;
/// Pressure below which an epoch counts toward recovery. Sits under
/// kEnterPressure: the gap is the hysteresis band where the ladder holds
/// its stage.
constexpr double kExitPressure = 0.75;
/// Consecutive calm epochs (pressure < kExitPressure) before the ladder
/// steps *down* one stage — re-entry hysteresis, so restored capacity is
/// proven before restrictions lift.
constexpr int kRecoverEpochs = 3;
}  // namespace

BrownoutStage BrownoutController::observe(double pressure) {
  const BrownoutStage before = stage_;
  if (pressure >= kEnterPressure) {
    // Overloaded: escalate one rung per barrier up to the clamp.
    calm_epochs_ = 0;
    if (stage_ < config_.max_stage) {
      stage_ = static_cast<BrownoutStage>(static_cast<int>(stage_) + 1);
    }
  } else if (pressure < kExitPressure) {
    // Calm: step down one rung only after kRecoverEpochs consecutive
    // calm barriers — restrictions lift slower than they engage.
    if (stage_ == BrownoutStage::kNormal) {
      calm_epochs_ = 0;
    } else if (++calm_epochs_ >= kRecoverEpochs) {
      calm_epochs_ = 0;
      stage_ = static_cast<BrownoutStage>(static_cast<int>(stage_) - 1);
    }
  } else {
    // The hysteresis band: hold the stage, restart the calm count.
    calm_epochs_ = 0;
  }
  if (trace_ != nullptr && stage_ != before) {
    trace_->emit_now(obs::EventKind::kBrownoutStage, /*chip=*/-1, /*tenant=*/-1,
                     static_cast<std::int64_t>(stage_), pressure);
  }
  return stage_;
}

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

namespace {
/// Trip when (timeouts + errors) / dispatches over the last epoch reaches
/// this rate...
constexpr double kTripRate = 0.5;
/// ...but never on fewer than this many dispatches (thin evidence).
constexpr std::uint64_t kMinSamples = 8;
/// Epochs spent open before the half-open probe begins.
constexpr int kOpenEpochs = 2;
/// Completions needed in half-open to close again; any timeout/error in
/// half-open reopens immediately.
constexpr int kProbeSuccesses = 4;
}  // namespace

void CircuitBreaker::open() {
  state_ = BreakerState::kOpen;
  open_dwell_ = 0;
  probe_wins_ = 0;
  ++trips_;
  if (trace_ != nullptr) {
    trace_->emit_now(obs::EventKind::kBreakerTrip, chip_, /*tenant=*/-1,
                     /*id=*/trips_);
  }
}

void CircuitBreaker::record_failure() {
  ++window_failures_;
  // A half-open probe failing is an immediate verdict: back to open for
  // a fresh dwell. (Closed-state trips wait for the barrier.)
  if (state_ == BreakerState::kHalfOpen) open();
}

void CircuitBreaker::record_success() {
  if (state_ == BreakerState::kHalfOpen && ++probe_wins_ >= kProbeSuccesses) {
    state_ = BreakerState::kClosed;
    probe_wins_ = 0;
    if (trace_ != nullptr) {
      trace_->emit_now(obs::EventKind::kBreakerClose, chip_);
    }
  }
}

void CircuitBreaker::close_epoch() {
  if (state_ == BreakerState::kClosed) {
    if (window_dispatches_ >= kMinSamples &&
        static_cast<double>(window_failures_) >=
            kTripRate * static_cast<double>(window_dispatches_)) {
      open();
    }
  } else if (state_ == BreakerState::kOpen) {
    if (++open_dwell_ >= kOpenEpochs) {
      state_ = BreakerState::kHalfOpen;
      probe_wins_ = 0;
      if (trace_ != nullptr) {
        trace_->emit_now(obs::EventKind::kBreakerHalfOpen, chip_);
      }
    }
  }
  window_dispatches_ = 0;
  window_failures_ = 0;
}

}  // namespace ntserv::ctrl
