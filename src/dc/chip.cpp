#include "dc/chip.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "workload/synthetic.hpp"

namespace ntserv::dc {

namespace {

/// Cycle cap on each cluster's cache warm: a warm that has not committed
/// its instructions by then stops there.
constexpr Cycle kWarmMaxCycles = 6'000'000;

/// Run context for invariant-violation messages: which chip, when — the
/// difference between a diagnosable failure and a needle in a
/// 1000-chip sweep.
std::string chip_context(int chip, double now_s) {
  std::ostringstream os;
  os << "[chip " << chip << ", t=" << now_s << "s]";
  return os.str();
}

}  // namespace

ChipServer::ChipServer(const ChipParams& params)
    : cores_per_cluster_(params.cluster.hierarchy.cores),
      chip_id_(params.chip_id),
      base_frequency_(params.frequency),
      frequency_(params.frequency),
      requested_frequency_(params.frequency) {
  NTSERV_EXPECTS(params.clusters > 0, "a chip needs at least one cluster");
  NTSERV_EXPECTS(params.tenants > 0, "a chip needs at least one tenant");
  clusters_.reserve(static_cast<std::size_t>(params.clusters));
  for (int k = 0; k < params.clusters; ++k) {
    sim::ClusterConfig cc = params.cluster;
    cc.core_clock = params.frequency;
    // Per-cluster workload stream: a pure function of (fleet seed, global
    // cluster index), so results never depend on chip grouping,
    // construction order or thread count.
    const int g = params.first_cluster_index + k;
    const std::uint64_t cluster_seed =
        derive_seed(params.fleet_seed, 0x5E28ull + static_cast<std::uint64_t>(g));
    clusters_.push_back(std::make_unique<sim::Cluster>(
        cc, workload::per_core_streams(params.profile, cluster_seed, cc.hierarchy.cores)));
  }
  slots_.resize(static_cast<std::size_t>(params.clusters * cores_per_cluster_));
  busy_per_cluster_.assign(static_cast<std::size_t>(params.clusters), 0);
  tenant_busy_seconds_.assign(static_cast<std::size_t>(params.tenants), 0.0);
}

void ChipServer::warm(std::uint64_t instructions) {
  for (auto& cluster : clusters_) cluster->run_until_committed(instructions, kWarmMaxCycles);
}

void ChipServer::set_frequency(Hertz f) {
  requested_frequency_ = f;
  // A limping chip's Vmin guardband escalation caps the clock below what
  // the governor asked for; the request is re-applied when the cap lifts.
  const Hertz cap = base_frequency_ * freq_cap_;
  frequency_ = freq_cap_ < 1.0 ? std::min(f, cap) : f;
  for (auto& cluster : clusters_) cluster->set_core_clock(frequency_);
}

std::vector<Request> ChipServer::crash(double now_s) {
  NTSERV_EXPECTS(!down_, "crash on an already-crashed chip " + chip_context(chip_id_, now_s));
  std::vector<Request> lost;
  for (auto& slot : slots_) {
    if (!slot.busy) continue;
    lost.push_back(slot.request);
    slot.busy = false;
    slot.target_user_committed = 0;
    slot.committed_at_quantum_start = 0;
  }
  busy_cores_ = 0;
  std::fill(busy_per_cluster_.begin(), busy_per_cluster_.end(), 0);
  // Cancel any pending transition stall: the voltage domain is powering
  // off anyway, and an outage must not leave a phantom stall behind.
  stall_begin_s_ = std::min(stall_begin_s_, now_s);
  stall_until_s_ = std::min(stall_until_s_, now_s);
  // A parked chip's span becomes down time from here: the parked and
  // down overlaps partition the outage instead of double-charging it.
  if (parked_accruing_) {
    parked_seconds_ += now_s - parked_since_s_;
    parked_accruing_ = false;
  }
  down_ = true;
  down_since_s_ = now_s;
  return lost;
}

void ChipServer::recover(double now_s) {
  NTSERV_EXPECTS(down_, "recover on a healthy chip " + chip_context(chip_id_, now_s));
  down_ = false;
  down_seconds_ += now_s - down_since_s_;
  // A chip that crashed while parked returns parked (the autoscaler
  // never unparks a down chip, so it is still meant to be asleep); its
  // parked integral resumes where the outage interrupted it.
  if (parked_) {
    parked_accruing_ = true;
    parked_since_s_ = now_s;
  }
}

void ChipServer::park(double now_s) {
  NTSERV_EXPECTS(!parked_, "park on an already-parked chip " + chip_context(chip_id_, now_s));
  NTSERV_EXPECTS(!down_, "park on a crashed chip " + chip_context(chip_id_, now_s));
  NTSERV_EXPECTS(outstanding() == 0,
                 "park with work outstanding (drain first) " + chip_context(chip_id_, now_s));
  parked_ = true;
  draining_ = false;
  // Truncate any open transition stall: the domain is powering off, and
  // a parked chip must not wake into a phantom swing (cf. crash()).
  stall_begin_s_ = std::min(stall_begin_s_, now_s);
  stall_until_s_ = std::min(stall_until_s_, now_s);
  parked_accruing_ = true;
  parked_since_s_ = now_s;
}

void ChipServer::unpark(double now_s, Second wake_latency) {
  NTSERV_EXPECTS(parked_, "unpark on a serving chip " + chip_context(chip_id_, now_s));
  NTSERV_EXPECTS(!down_, "unpark on a crashed chip " + chip_context(chip_id_, now_s));
  parked_ = false;
  if (parked_accruing_) {
    parked_seconds_ += now_s - parked_since_s_;
    parked_accruing_ = false;
  }
  // Deep-sleep exit: the wake latency is a service stall charged at full
  // active power through the usual per-epoch overlap accounting — the
  // wake-energy burn the autoscaler's savings must beat.
  if (wake_latency.value() > 0.0) begin_stall(now_s, wake_latency);
}

void ChipServer::degrade(double freq_cap, int core_cap) {
  NTSERV_EXPECTS(freq_cap > 0.0 && freq_cap <= 1.0,
                 "degrade frequency cap must be in (0,1] " + chip_context(chip_id_, 0.0));
  freq_cap_ = freq_cap;
  core_cap_ = std::max(core_cap, 0);
  set_frequency(requested_frequency_);
}

void ChipServer::restore() {
  freq_cap_ = 1.0;
  core_cap_ = 0;
  set_frequency(requested_frequency_);
}

int ChipServer::usable_cores() const {
  return core_cap_ > 0 ? std::min(core_cap_, cores()) : cores();
}

void ChipServer::start_services(double now_s) {
  if (down_) return;                 // a crashed chip serves nothing
  if (parked_) return;               // powered down to the sleep floor
  if (in_transition(now_s)) return;  // the whole voltage domain is mid-swing
  const auto fillable = static_cast<std::size_t>(usable_cores());
  for (std::size_t s = 0; s < std::min(fillable, slots_.size()); ++s) {
    if (queue_.empty()) return;
    CoreSlot& slot = slots_[s];
    if (slot.busy) continue;
    slot.request = queue_.front();
    queue_.pop_front();
    slot.request.core = static_cast<int>(s);
    slot.request.start_s = now_s;
    slot.target_user_committed =
        cluster_of_slot(s).user_committed_on(core_of_slot(s)) + slot.request.budget;
    slot.busy = true;
    ++busy_cores_;
    ++busy_per_cluster_[s / static_cast<std::size_t>(cores_per_cluster_)];
  }
}

void ChipServer::advance(double now_s, double dt, Cycle quantum, std::vector<Request>& done) {
  if (down_) return;             // crashed: no service, no active time
  if (busy_cores_ == 0) return;  // whole chip asleep (fleet-level event skip)

  // Cycles this quantum at the chip's own clock. The ratio is exactly 1.0
  // while the chip sits at the fleet base frequency, so ungoverned runs
  // advance precisely `quantum` cycles; a descended chip accumulates
  // fractional cycles across quanta instead of rounding them away.
  const double ratio = frequency_.value() / base_frequency_.value();
  cycle_carry_ += static_cast<double>(quantum) * ratio;
  const auto cycles = static_cast<Cycle>(cycle_carry_);
  cycle_carry_ -= static_cast<double>(cycles);

  // Busy/active time accrues in master wall time regardless of the cycle
  // quantization: the cores were occupied for the whole quantum.
  active_seconds_ += dt;
  epoch_active_seconds_ += dt;
  const double busy_dt = static_cast<double>(busy_cores_) * dt;
  busy_core_seconds_ += busy_dt;
  epoch_busy_core_seconds_ += busy_dt;
  for (const auto& slot : slots_) {
    if (slot.busy) {
      tenant_busy_seconds_[static_cast<std::size_t>(slot.request.tenant)] += dt;
    }
  }
  if (cycles == 0) return;  // clock too slow for this quantum; carry holds it

  // Wall span the advanced cycles actually cover (== dt at the base
  // frequency; within one cycle of dt otherwise).
  const double served_dt = static_cast<double>(cycles) / frequency_.value();

  for (std::size_t k = 0; k < clusters_.size(); ++k) {
    if (busy_per_cluster_[k] == 0) continue;  // idle cluster stays asleep
    sim::Cluster& cluster = *clusters_[k];
    const std::size_t first = k * static_cast<std::size_t>(cores_per_cluster_);
    const std::size_t last = first + static_cast<std::size_t>(cores_per_cluster_);
    for (std::size_t s = first; s < last; ++s) {
      if (slots_[s].busy) {
        slots_[s].committed_at_quantum_start =
            cluster.user_committed_on(core_of_slot(s));
      }
    }
    cluster.run(cycles);

    for (std::size_t s = first; s < last; ++s) {
      CoreSlot& slot = slots_[s];
      while (slot.busy) {
        const std::uint64_t committed = cluster.user_committed_on(core_of_slot(s));
        if (committed < slot.target_user_committed) break;
        // Interpolate the completion inside the quantum from the commit
        // overshoot, so latency error is O(1) instructions, not O(quantum).
        const std::uint64_t progressed = committed - slot.committed_at_quantum_start;
        const std::uint64_t needed =
            slot.target_user_committed - slot.committed_at_quantum_start;
        const double frac =
            progressed > 0
                ? static_cast<double>(needed) / static_cast<double>(progressed)
                : 1.0;
        slot.request.completion_s = now_s + frac * served_dt;
        if (governor_ != nullptr) epoch_latencies_.push_back(slot.request.latency_s());
        done.push_back(slot.request);
        if (!queue_.empty()) {
          // Back-to-back service: the next queued request starts at the
          // interpolated completion instant, and the instructions the
          // core has already committed past the old target count toward
          // it — no quantum of capacity is lost between requests.
          Request next = queue_.front();
          queue_.pop_front();
          next.core = slot.request.core;
          next.start_s = slot.request.completion_s;
          slot.target_user_committed += next.budget;
          slot.request = next;
          continue;  // the overshoot may already cover the next budget
        }
        slot.busy = false;
        --busy_cores_;
        --busy_per_cluster_[k];
        break;
      }
    }
  }
}

void ChipServer::attach_governor(std::unique_ptr<ctrl::FleetGovernor> governor,
                                 const pm::PowerManager* manager, Second qos_p99_limit) {
  NTSERV_EXPECTS(governor != nullptr && manager != nullptr,
                 "attach_governor needs a governor and its power manager");
  governor_ = std::move(governor);
  manager_ = manager;
  qos_p99_limit_ = qos_p99_limit;
  set_frequency(governor_->initial_frequency());
}

Hertz ChipServer::cap_frequency(Hertz f) const {
  if (power_budget_.value() <= 0.0 || governor_ == nullptr) return f;
  const double budget = power_budget_.value();
  // Full-duty power at a candidate point, through the governor's own
  // energy accounting (so a boosted NTC point is judged at the biased
  // device's power, and a guardband margin is judged at its stretched
  // supply — the cap sees the Watts the epoch would actually charge).
  const auto power_at = [&](Hertz x) {
    return governor_->epoch_energy(*manager_, x, 1.0, Second{1.0}).value();
  };
  if (power_at(f) <= budget * (1.0 + 1e-9)) return f;
  // Walk the DVFS grid downward to the largest affordable point. When
  // even the bottom of the grid exceeds the budget, run there anyway —
  // the fleet reports the realized excursion as a cap violation rather
  // than halting service.
  const auto& curve = manager_->curve();
  for (auto it = curve.rbegin(); it != curve.rend(); ++it) {
    if (it->frequency.value() >= f.value()) continue;
    if (power_at(it->frequency) <= budget * (1.0 + 1e-9)) return it->frequency;
  }
  return curve.front().frequency;
}

void ChipServer::apply_power_budget() {
  if (governor_ == nullptr) return;
  const Hertz target = requested_frequency_;
  const Hertz capped = cap_frequency(target);
  cap_active_ = capped.value() < target.value() * (1.0 - 1e-12);
  if (capped != target) set_frequency(capped);
}

ChipServer::EpochOutcome ChipServer::close_epoch(double now_s, double duration,
                                                 std::uint64_t epoch_index,
                                                 bool final_partial) {
  NTSERV_EXPECTS(governor_ != nullptr, "close_epoch on an ungoverned chip " +
                                           chip_context(chip_id_, now_s));
  EpochOutcome out;
  const double epoch_start = now_s - duration;
  // The closing epoch's share of the (single, boundary-started) stall: a
  // voltage ramp can span several control intervals, and each records
  // exactly the pause that fell inside it.
  const double stall_overlap =
      std::max(0.0, std::min(stall_until_s_, now_s) - std::max(stall_begin_s_, epoch_start));
  if (duration <= 0.0 && stall_overlap <= 0.0) return out;

  // The epoch's share of crash down time, by the same each-second-charged-
  // exactly-once bookkeeping as the stall: the lifetime down integral
  // advanced past the anchor left at the previous close.
  const double down_total = down_seconds(now_s);
  const double down_overlap = std::max(0.0, down_total - epoch_down_anchor_);
  epoch_down_anchor_ = down_total;

  // The epoch's parked span, by the same anchor bookkeeping. Parked and
  // down spans are disjoint by construction (the parked integral pauses
  // across an outage), so serving + stall + down + parked tiles the
  // epoch.
  const double parked_total = parked_seconds(now_s);
  const double parked_overlap = std::max(0.0, parked_total - epoch_parked_anchor_);
  epoch_parked_anchor_ = parked_total;

  ctrl::EpochRecord rec;
  rec.chip = chip_id_;
  rec.epoch = epoch_index;
  rec.duration = Second{duration};
  rec.utilization =
      duration > 0.0
          ? epoch_busy_core_seconds_ / (duration * static_cast<double>(cores()))
          : 0.0;
  rec.transition = stall_overlap > 0.0;
  rec.transition_time = Second{stall_overlap};
  rec.boosted = governor_->boosted();
  rec.margin = governor_->margin();
  rec.down_time = Second{down_overlap};
  rec.parked_time = Second{parked_overlap};
  rec.capped = cap_active_;  // the budget that held *during* this epoch

  double p99 = 0.0;
  if (!epoch_latencies_.empty()) {
    std::sort(epoch_latencies_.begin(), epoch_latencies_.end());
    p99 = nearest_rank(epoch_latencies_, 0.99);
  }
  rec.p99 = Second{p99};

  // Energy: the serving span at the governor's duty semantics, plus the
  // stalled span at full active power (the ramp burns at the target
  // point — frequency_ already is the target during a stall), plus the
  // crashed span at zero (fail-stop is powered off). Charging the stall
  // through its epochs, not at the decision, keeps every wall second
  // charged exactly once.
  const bool sleeps = governor_->sleeps_when_idle();
  const double serving =
      std::max(0.0, duration - stall_overlap - down_overlap - parked_overlap);
  const double duty = sleeps && serving > 0.0
                          ? std::min(1.0, epoch_active_seconds_ / serving)
                          : (serving > 0.0 ? 1.0 : 0.0);
  out.energy_j =
      governor_->epoch_energy(*manager_, frequency_, duty, Second{serving}).value() +
      governor_->epoch_energy(*manager_, frequency_, 1.0, Second{stall_overlap}).value() +
      // A parked span sits at the platform's deep-idle floor regardless
      // of the governor's duty semantics — that floor (vs a fixed-max
      // chip's full active power) is the autoscaler's entire saving.
      manager_->sleep_power().value() * parked_overlap;

  rec.decision.frequency = frequency_;
  rec.decision.duty = duty;
  rec.decision.sleeps = sleeps && duty < 1.0;
  rec.decision.avg_power = duration > 0.0 ? Watt{out.energy_j / duration} : Watt{0.0};
  const double limit = qos_p99_limit_.value();
  rec.violation = limit > 0.0 && p99 > limit && !rec.transition;
  rec.decision.met_demand = !rec.violation;

  freq_seconds_ += frequency_.value() * duration;
  governed_seconds_ += duration;
  last_epoch_utilization_ = rec.utilization;
  last_epoch_p99_ = Second{p99};

  // Guardband relaxes exactly once per closed epoch — after this epoch's
  // energy was charged at its margin, before the next epoch begins.
  const double margin_before = governor_->margin();
  governor_->relax_guardband();
  if (trace_ != nullptr && margin_before > 0.0 && governor_->margin() == 0.0) {
    trace_->emit(obs::EventKind::kGuardbandRelease, chip_id_, now_s);
  }

  // A chip mid-swing at the boundary holds: the governor cannot retune a
  // voltage domain that has not settled yet. A crashed or parked chip's
  // governor holds too — there is no live domain to retune.
  if (!final_partial && !in_transition(now_s) && !down_ && !parked_) {
    ctrl::EpochObservation obs;
    obs.epoch = epoch_index;
    obs.frequency = frequency_;
    obs.utilization = rec.utilization;
    obs.completions = epoch_latencies_.size();
    obs.p99 = Second{p99};
    const bool boosted_before = governor_->boosted();
    const Hertz f_decided = governor_->decide(obs);
    if (trace_ != nullptr && governor_->boosted() != boosted_before) {
      trace_->emit(governor_->boosted() ? ntserv::obs::EventKind::kBoostEngage
                                        : ntserv::obs::EventKind::kBoostRelease,
                   chip_id_, now_s);
    }
    // The fleet power cap clamps the decided point to this chip's
    // budget. Clamping *before* the requested-frequency comparison means
    // a standing clamp re-issues the same applied target every epoch and
    // never re-pays the transition stall.
    const Hertz f_next = cap_frequency(f_decided);
    cap_active_ = f_next.value() < f_decided.value() * (1.0 - 1e-12);
    // Compare against the *requested* frequency: a degradation cap can
    // pin the applied clock below a standing request, and re-issuing the
    // same request must not re-pay the transition every epoch.
    if (f_next != requested_frequency_) {
      const Hertz before = frequency_;
      set_frequency(f_next);
      if (frequency_ != before) {
        if (trace_ != nullptr) {
          trace_->emit(ntserv::obs::EventKind::kFrequency, chip_id_, now_s,
                       /*tenant=*/-1, /*id=*/-1, /*value=*/frequency_.value());
        }
        // The shared transition: every cluster on the chip pauses for
        // the swing while arrivals keep queueing. Its energy accrues in
        // the epochs the stall overlaps (see above).
        const Second t_trans = governor_->transition_time(before, frequency_);
        out.transition_s = t_trans.value();
        begin_stall(now_s, t_trans);
      }
    }
  }

  out.record = rec;
  out.emitted = true;
  epoch_latencies_.clear();
  epoch_busy_core_seconds_ = 0.0;
  epoch_active_seconds_ = 0.0;
  return out;
}

Watt ChipServer::floor_power() const {
  if (governor_ == nullptr || manager_ == nullptr) return Watt{0.0};
  return Watt{governor_
                  ->epoch_energy(*manager_, manager_->curve().front().frequency,
                                 1.0, Second{1.0})
                  .value()};
}

bool ChipServer::pending_descent(double now_s, double epoch_start_s,
                                 double min_window_s) const {
  if (governor_ == nullptr) return false;
  const double elapsed = now_s - epoch_start_s;
  ctrl::EpochObservation obs;
  obs.frequency = frequency_;
  // The running utilization estimate is noise at the top of an epoch; the
  // last closed epoch's value stands in until the window is long enough.
  obs.utilization =
      elapsed >= min_window_s && elapsed > 0.0
          ? std::min(1.0, epoch_busy_core_seconds_ / (elapsed * static_cast<double>(cores())))
          : last_epoch_utilization_;
  obs.completions = epoch_latencies_.size();
  obs.p99 = last_epoch_p99_;  // the tail is a lagging signal by nature
  return governor_->peek(obs).value() < frequency_.value() * (1.0 - 1e-9);
}

}  // namespace ntserv::dc
