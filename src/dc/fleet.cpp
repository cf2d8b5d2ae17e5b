#include "dc/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dc/latency_stats.hpp"
#include "sim/thread_pool.hpp"

namespace ntserv::dc {

namespace {

/// Power-aware packing bound: a chip accepts new work while its
/// outstanding count is below this many requests per core.
constexpr double kPackDepthPerCore = 2.0;

}  // namespace

const char* to_string(BalancePolicy p) {
  switch (p) {
    case BalancePolicy::kRoundRobin: return "round-robin";
    case BalancePolicy::kLeastLoaded: return "least-loaded";
    case BalancePolicy::kPowerAware: return "power-aware";
    case BalancePolicy::kGovernorAware: return "governor-aware";
  }
  return "unknown";
}

void TenantSpec::validate() const {
  NTSERV_EXPECTS(!name.empty(), "tenant needs a name");
  arrival.validate();
  NTSERV_EXPECTS(user_instructions_per_request > 0,
                 "requests must cost at least one instruction");
  NTSERV_EXPECTS(requests > 0, "tenant needs at least one measured request");
  resolved_budget().validate();
}

ctrl::BudgetConfig TenantSpec::resolved_budget() const {
  ctrl::BudgetConfig b = budget;
  if (b.mean == 0) b.mean = user_instructions_per_request;
  return b;
}

void ResilienceConfig::validate() const {
  NTSERV_EXPECTS(timeout.value() >= 0.0, "timeout must be non-negative");
  if (hedging) {
    NTSERV_EXPECTS(hedge_multiplier > 0.0, "hedge multiplier must be positive");
    NTSERV_EXPECTS(hedge_min_delay.value() > 0.0,
                   "hedging needs a positive minimum delay (the cold-start rule)");
  }
}

void FleetConfig::validate() const {
  profile.validate();
  NTSERV_EXPECTS(servers > 0, "fleet needs at least one chip");
  NTSERV_EXPECTS(clusters_per_chip > 0, "a chip needs at least one cluster");
  NTSERV_EXPECTS(frequency.value() > 0.0, "core frequency must be positive");
  NTSERV_EXPECTS(!tenants.empty(), "fleet needs at least one tenant");
  std::set<std::string> names;
  for (const auto& t : tenants) {
    t.validate();
    NTSERV_EXPECTS(names.insert(t.name).second, "tenant names must be unique");
  }
  admission.validate();
  governor.validate();
  faults.validate();
  resilience.validate();
  brownout.validate();
  for (const auto& e : faults.events) {
    if (e.kind == fault::FaultKind::kDomainOutage ||
        e.kind == fault::FaultKind::kThermalEmergency) {
      continue;  // domain range is validated by faults.validate()
    }
    NTSERV_EXPECTS(e.chip < servers, "scripted fault event targets a chip outside the fleet");
  }
  for (const auto& d : faults.domains) {
    for (const int chip : d.members) {
      NTSERV_EXPECTS(chip < servers, "failure domain names a chip outside the fleet");
    }
  }
  orchestration.validate();
  if (orchestration.any()) {
    NTSERV_EXPECTS(governor.kind != ctrl::GovernorKind::kNone,
                   "orchestration requires a governed fleet (it acts at the epoch barrier)");
  }
  if (brownout.enabled || breaker.enabled) {
    NTSERV_EXPECTS(governor.kind != ctrl::GovernorKind::kNone,
                   "brownout and circuit breakers require a governed fleet "
                   "(they act at the epoch barrier)");
  }
  if (orchestration.router.enabled) {
    int group_servers = 0;
    for (const auto& g : orchestration.router.groups) {
      group_servers += g.servers;
      NTSERV_EXPECTS(g.governor.epoch_quanta == governor.epoch_quanta,
                     "router groups must share the fleet's epoch grid");
    }
    NTSERV_EXPECTS(group_servers == servers,
                   "router group servers must sum to the fleet size");
  }
  if (orchestration.autoscaler.enabled) {
    NTSERV_EXPECTS(orchestration.autoscaler.min_active <= servers,
                   "autoscaler min_active exceeds the fleet size");
  }
}

ShardPlan ShardPlan::serial(int /*servers*/, std::uint64_t /*fleet_seed*/) { return {}; }

ShardPlan ShardPlan::make(int servers, int shards, std::uint64_t /*fleet_seed*/) {
  return {std::min(sim::resolve_threads(shards), servers)};
}

ClusterFleet::ClusterFleet(FleetConfig config, int threads)
    : config_(std::move(config)), admission_(config_.admission) {
  config_.validate();
  governed_ = config_.governor.kind != ctrl::GovernorKind::kNone;
  const bool routed = config_.orchestration.router.enabled;
  if (governed_) {
    if (config_.governor.curve.empty()) config_.governor.curve = ctrl::default_uips_curve();
    if (routed) {
      // One platform (manager) per router group: each group has its own
      // tech point, curve and governor shape.
      for (auto& g : config_.orchestration.router.groups) {
        if (g.governor.curve.empty()) g.governor.curve = config_.governor.curve;
        managers_.push_back(
            std::make_unique<pm::PowerManager>(ctrl::make_power_manager(g.governor)));
      }
    } else {
      managers_.push_back(
          std::make_unique<pm::PowerManager>(ctrl::make_power_manager(config_.governor)));
    }
  }
  // Chip -> router group (all group 0 without routing; with it, groups
  // occupy contiguous index ranges in config order).
  std::vector<int> chip_group(static_cast<std::size_t>(config_.servers), 0);
  if (routed) {
    int next = 0;
    for (std::size_t g = 0; g < config_.orchestration.router.groups.size(); ++g) {
      for (int k = 0; k < config_.orchestration.router.groups[g].servers; ++k) {
        chip_group[static_cast<std::size_t>(next++)] = static_cast<int>(g);
      }
    }
  }
  // The per-cluster architectural cache warm (warm_instructions of
  // committed work) dominates startup. Chips are independent,
  // seed-derived units — every stream is keyed by the global cluster
  // index — so any multi-chip fleet warms in parallel (at most one worker
  // per chip) with state bit-identical to a serial warm. The chips are
  // allocated here, on the calling thread: built on the workers, their
  // long-lived state landed in glibc's per-thread malloc arenas, and five
  // back-to-back builds of rack-loss-web in one process grew peak RSS
  // from 18.2 to 21.3 MB, where serial allocation holds 18.4 MB.
  chips_.reserve(static_cast<std::size_t>(config_.servers));
  for (int s = 0; s < config_.servers; ++s) {
    ChipParams params;
    params.cluster = config_.cluster;
    params.clusters = config_.clusters_per_chip;
    params.profile = config_.profile;
    params.frequency = config_.frequency;
    params.fleet_seed = config_.seed;
    params.first_cluster_index = s * config_.clusters_per_chip;
    params.chip_id = s;
    params.tenants = static_cast<int>(config_.tenants.size());
    chips_.push_back(std::make_unique<ChipServer>(params));
  }
  sim::parallel_for_index(threads, chips_.size(), [&](std::size_t i) {
    chips_[i]->warm(config_.warm_instructions);
  });
  if (governed_) {
    for (int s = 0; s < config_.servers; ++s) {
      // One governor instance per chip: identical initial state, but each
      // evolves on its own chip's observations (per-chip DVFS).
      const auto g = static_cast<std::size_t>(chip_group[static_cast<std::size_t>(s)]);
      const ctrl::GovernorConfig& gc =
          routed ? config_.orchestration.router.groups[g].governor : config_.governor;
      auto& chip = chips_[static_cast<std::size_t>(s)];
      chip->set_group(static_cast<int>(g));
      chip->attach_governor(ctrl::make_governor(gc, *managers_[g]), managers_[g].get(),
                            gc.qos_p99_limit);
    }
  }
  // Chip -> failure domain (cross-domain hedge placement, emergency wake).
  chip_domain_.assign(static_cast<std::size_t>(config_.servers), -1);
  for (std::size_t d = 0; d < config_.faults.domains.size(); ++d) {
    for (const int chip : config_.faults.domains[d].members) {
      chip_domain_[static_cast<std::size_t>(chip)] = static_cast<int>(d);
    }
  }
  if (config_.brownout.enabled) brownout_.emplace(config_.brownout);
  if (config_.breaker.enabled) {
    breakers_.assign(static_cast<std::size_t>(config_.servers), ctrl::CircuitBreaker{});
  }
  const orch::OrchestratorConfig& oc = config_.orchestration;
  if (oc.autoscaler.enabled) autoscaler_.emplace(oc.autoscaler);
  if (oc.router.enabled) router_.emplace(oc.router);
  if (oc.cap.enabled) {
    capper_.emplace(oc.cap);
    // Clamp the initial operating point too, so epoch 0 already respects
    // the cap: an equal split (no queue signal yet), applied without a
    // transition stall — the fleet starts at the capped point rather
    // than dropping to it.
    std::vector<orch::ChipStatus> status(chips_.size());
    for (std::size_t s = 0; s < chips_.size(); ++s) {
      status[s].chip = static_cast<int>(s);
      status[s].group = chips_[s]->group();
    }
    split_power_cap(status, /*apply_now=*/true);
  }
}

void ClusterFleet::set_telemetry(obs::Telemetry* telemetry) {
  // Only enabled components are wired: every emission site tests one
  // plain pointer, so detached/disabled telemetry stays off the hot path.
  trace_ = telemetry != nullptr && telemetry->trace.enabled() ? &telemetry->trace : nullptr;
  metrics_ =
      telemetry != nullptr && telemetry->metrics.enabled() ? &telemetry->metrics : nullptr;
  timers_ =
      telemetry != nullptr && telemetry->timers.enabled() ? &telemetry->timers : nullptr;
  for (std::size_t s = 0; s < chips_.size(); ++s) {
    chips_[s]->set_trace(trace_);
    if (!breakers_.empty()) breakers_[s].attach_trace(trace_, static_cast<int>(s));
  }
  if (brownout_) brownout_->attach_trace(trace_);
  if (capper_) capper_->attach_trace(trace_);
}

void ClusterFleet::split_power_cap(const std::vector<orch::ChipStatus>& status,
                                   bool apply_now) {
  Watt reserved{0.0};
  for (const auto& st : status) {
    if (st.parked && !st.down) {
      reserved += managers_[static_cast<std::size_t>(st.group)]->sleep_power();
    }
  }
  const std::vector<Watt> budgets = capper_->split(status, reserved);
  for (std::size_t s = 0; s < chips_.size(); ++s) {
    chips_[s]->set_power_budget(budgets[s]);
    if (apply_now) chips_[s]->apply_power_budget();
  }
}

// ---------------------------------------------------------------------------
// One fleet run
// ---------------------------------------------------------------------------

namespace {

/// One admitted, unresolved dispatch copy of a request.
struct LiveCopy {
  std::uint64_t copy;
  int server;
};

/// Everything the fleet knows about an undisposed request: the canonical
/// fields (for retries and hedges), its live copies, and its fault
/// exposure.
struct PendingRequest {
  Request proto;
  std::vector<LiveCopy> live;
  bool hedged = false;
  bool damaged = false;  ///< lifetime overlapped an active fault window

  [[nodiscard]] std::vector<LiveCopy>::iterator find_copy(std::uint64_t copy) {
    return std::find_if(live.begin(), live.end(),
                        [copy](const LiveCopy& c) { return c.copy == copy; });
  }
};

/// A client waiting out its back-off before the next dispatch attempt.
struct RetryEntry {
  double due_s;
  Request request;
  /// Min-heap on (due time, id): id breaks ties deterministically.
  [[nodiscard]] bool operator>(const RetryEntry& o) const {
    return due_s != o.due_s ? due_s > o.due_s : request.id > o.request.id;
  }
};

/// A copy's timeout (key = copy) or a request's hedge (key = id) falling
/// due; the key breaks due-time ties deterministically.
struct Timer {
  double due_s;
  std::uint64_t key;
  std::uint64_t id;
  [[nodiscard]] bool operator>(const Timer& o) const {
    return due_s != o.due_s ? due_s > o.due_s : key > o.key;
  }
};

template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<>>;

/// The books of one run: every undisposed request with its live copies,
/// the in-service copies whose completion will be discarded, and the
/// timers that act on them. Every disposal goes through dispose(), so
/// the disposed and damage counts stay consistent by construction;
/// close() checks that the books tile.
class RequestLedger {
 public:
  [[nodiscard]] std::uint64_t disposed() const { return disposed_; }
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  /// Undisposed requests whose lifetime overlapped a fault window.
  [[nodiscard]] std::uint64_t damaged() const { return damaged_; }
  /// Requests with two or more live copies: the first to complete cancels
  /// the others, possibly out of another chip's queue.
  [[nodiscard]] std::size_t racing() const { return racing_; }
  /// Cancelled copies still in service (their completion is discarded).
  [[nodiscard]] std::size_t dead() const { return dead_.size(); }

  void open(const Request& req) {
    pending_.emplace(req.id, PendingRequest{req, {}, false, false});
  }
  /// The request's state, or null once it is disposed.
  [[nodiscard]] PendingRequest* find(std::uint64_t id) {
    const auto it = pending_.find(id);
    return it == pending_.end() ? nullptr : &it->second;
  }
  /// Retire a request: completed, shed, or timed out.
  void dispose(std::uint64_t id) {
    const auto it = pending_.find(id);
    if (it->second.damaged) --damaged_;
    pending_.erase(it);
    ++disposed_;
  }

  void mark_damaged(PendingRequest& pr) {
    if (pr.damaged) return;
    pr.damaged = true;
    ++damaged_;
  }
  /// A fault hit `chip`: every request with a live copy there is damaged.
  void damage_residents(int chip) {
    for (auto& [id, pr] : pending_) {
      for (const auto& lc : pr.live) {
        if (lc.server == chip) {
          mark_damaged(pr);
          break;
        }
      }
    }
  }

  // Every change to a request's live copies goes through these three, so
  // the racing count stays consistent by construction.
  void add_copy(PendingRequest& pr, const LiveCopy& lc) {
    pr.live.push_back(lc);
    if (pr.live.size() == 2) ++racing_;
  }
  void drop_copy(PendingRequest& pr, std::vector<LiveCopy>::iterator it) {
    if (pr.live.size() == 2) --racing_;
    pr.live.erase(it);
  }
  void clear_copies(PendingRequest& pr) {
    if (pr.live.size() >= 2) --racing_;
    pr.live.clear();
  }

  [[nodiscard]] std::uint64_t next_copy() { return ++copy_seq_; }
  /// Remove a cancelled copy from the fleet: dequeue it from its chip's
  /// `queue` if it is still waiting, otherwise it is in service and its
  /// eventual completion is discarded as wasted work.
  void cancel(const LiveCopy& lc, std::deque<Request>& queue) {
    for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
      if (qit->copy == lc.copy) {
        queue.erase(qit);
        return;
      }
    }
    dead_.insert(lc.copy);
  }
  /// A cancelled copy's service ended (it completed, or its chip
  /// crashed): forget the copy, report waste.
  [[nodiscard]] bool discard(std::uint64_t copy) { return dead_.erase(copy) > 0; }

  /// End of run: attribute the undisposed requests to their tenants as
  /// in flight, then check that the books tile — every offered request is
  /// exactly one of completed, shed, timed out, or still in flight
  /// (truncation), for the fleet and for every tenant.
  void close(FleetResult& r, const std::string& context) const {
    r.in_flight = pending_.size();
    for (const auto& [id, pr] : pending_) {
      ++r.tenants[static_cast<std::size_t>(pr.proto.tenant)].in_flight;
    }
    NTSERV_ENSURES(r.offered == r.completed_all + r.shed + r.timed_out + r.in_flight,
                   "request accounting does not tile " + context);
    for (const TenantResult& t : r.tenants) {
      NTSERV_ENSURES(t.offered == t.completed_all + t.shed + t.timed_out + t.in_flight,
                     "tenant '" + t.name + "' accounting does not tile " + context);
    }
  }

  MinHeap<RetryEntry> retries;  ///< clients waiting out a back-off
  MinHeap<Timer> deadlines;     ///< per-copy timeouts
  MinHeap<Timer> hedges;        ///< requests earning their hedge

 private:
  std::unordered_map<std::uint64_t, PendingRequest> pending_;  ///< id -> state
  /// In-service copies that lost their race (timeout abandonment or a
  /// sibling's win): they run to completion, then are discarded.
  std::unordered_set<std::uint64_t> dead_;
  std::size_t racing_ = 0;
  std::uint64_t copy_seq_ = 0;
  std::uint64_t damaged_ = 0;
  std::uint64_t disposed_ = 0;
};

/// Latency estimators of one population: the fleet, or one tenant.
struct LatencyStats {
  StreamingPercentiles tail{};
  RunningStats latency, wait;

  void add(const Request& req) {
    tail.add(req.latency_s());
    latency.add(req.latency_s());
    wait.add(req.wait_s());
  }
  /// Fill a FleetResult's or TenantResult's latency fields (left zero
  /// without a measured completion).
  template <typename Result>
  void report(Result& out) const {
    if (tail.count() == 0) return;
    out.mean_latency = Second{latency.mean()};
    out.p50 = Second{tail.p50()};
    out.p95 = Second{tail.p95()};
    out.p99 = Second{tail.p99()};
    out.mean_wait = Second{wait.mean()};
  }
};

/// One tenant's generators and latency estimators.
struct TenantState {
  const TenantSpec* spec;
  ArrivalProcess arrivals;
  ctrl::BudgetSampler budgets;
  std::uint64_t total;  ///< requests + warmup_requests
  double next_arrival_s = 0.0;
  LatencyStats latency{};
};

/// One chip's run through a lookahead window: the quanta it was busy for
/// and the completions it staged, each tagged with its window quantum.
struct ChipWindow {
  ChipServer* chip = nullptr;
  std::size_t quanta = 0;
  std::vector<Request> done;
  std::vector<std::size_t> quantum;  ///< parallel to `done`
  std::size_t drained = 0;           ///< drain cursor into `done`
};

// Per-epoch metric columns, registered once before any snapshot.
struct ChipMetricIds {
  obs::MetricsRegistry::Id queue, freq, power, util, breaker, parked, down;
};
struct FleetMetricIds {
  obs::MetricsRegistry::Id offered, completed, shed, timed_out, retries;
  obs::MetricsRegistry::Id p50, p95, p99, brownout, power, parked, in_flight;
  obs::MetricsRegistry::Id latency_hist;
};

}  // namespace

/// One fleet run: a loop over named stages — fault delivery, the epoch
/// barrier, timeouts, dispatch, hedges — each followed by a lookahead
/// window of the data plane and its completion drain, then result
/// assembly. Every counter is booked once, directly on the FleetResult or
/// TenantResult field that reports it.
class ClusterFleet::Run {
 public:
  Run(ClusterFleet& fleet, int threads)
      : fleet_(fleet),
        res_(fleet.config_.resilience),
        base_f_(fleet.config_.frequency.value()),
        max_s_(static_cast<double>(fleet.config_.max_cycles) / base_f_),
        dt_(static_cast<double>(FleetConfig::quantum) / base_f_),
        epoch_len_s_(static_cast<double>(fleet.config_.governor.epoch_quanta) * dt_),
        timeout_s_(res_.timeout.value()),
        chip_degraded_(fleet.chips_.size(), 0),
        windows_(fleet.chips_.size()) {
    for (std::size_t s = 0; s < windows_.size(); ++s) windows_[s].chip = fleet.chips_[s].get();
    const FleetConfig& cfg = fleet_.config_;
    r_.workload = cfg.profile.name;
    r_.frequency = cfg.frequency;
    r_.governed = fleet_.governed_;
    r_.brownout_enabled = fleet_.brownout_.has_value();
    if (fleet_.brownout_) {
      r_.brownout_stage_epochs.assign(static_cast<std::size_t>(ctrl::kBrownoutStages), 0);
    }
    if (fleet_.router_) {
      for (const auto& g : cfg.orchestration.router.groups) r_.group_names.push_back(g.name);
      r_.group_dispatches.assign(r_.group_names.size(), 0);
      r_.group_energy.assign(r_.group_names.size(), Joule{0.0});
    }
    tenants_.reserve(cfg.tenants.size());
    r_.tenants.resize(cfg.tenants.size());
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
      const TenantSpec& spec = cfg.tenants[t];
      // Per-tenant streams keyed by tenant index.
      tenants_.push_back(TenantState{
          &spec, ArrivalProcess{spec.arrival, derive_seed(cfg.seed, 0xA441ull + t)},
          ctrl::BudgetSampler{spec.resolved_budget(), derive_seed(cfg.seed, 0xB0D6ull + t)},
          spec.requests + spec.warmup_requests});
      tenants_.back().next_arrival_s = tenants_.back().arrivals.next().value();
      total_ += tenants_.back().total;
      r_.tenants[t].name = spec.name;
    }
    if (cfg.faults.any()) {
      injector_ =
          std::make_unique<fault::FaultInjector>(cfg.faults, cfg.seed, fleet_.servers());
    }
    if (fleet_.trace_ != nullptr) {
      fleet_.trace_->begin_run(fleet_.servers());
      if (injector_ != nullptr) injector_->attach_trace(fleet_.trace_);
    }
    if (obs::MetricsRegistry* m = fleet_.metrics_; m != nullptr) {
      for (int s = 0; s < fleet_.servers(); ++s) {
        const std::string p = "chip" + std::to_string(s) + ".";
        chip_metric_ids_.push_back({m->gauge(p + "queue"), m->gauge(p + "freq_ghz"),
                                    m->gauge(p + "power_w"), m->gauge(p + "util"),
                                    m->gauge(p + "breaker"), m->gauge(p + "parked"),
                                    m->gauge(p + "down")});
      }
      fm_ = {m->counter("fleet.offered"),     m->counter("fleet.completed"),
             m->counter("fleet.shed"),        m->counter("fleet.timed_out"),
             m->counter("fleet.retries"),     m->gauge("fleet.p50_us"),
             m->gauge("fleet.p95_us"),        m->gauge("fleet.p99_us"),
             m->gauge("fleet.brownout_stage"), m->gauge("fleet.power_w"),
             m->gauge("fleet.parked_chips"),  m->gauge("fleet.in_flight"),
             m->histogram("fleet.latency_us")};
    }
    // One persistent pool per run (not per window): workers park on the
    // condition variable between windows, so each window costs one submit
    // per busy chip and one wait_idle barrier. No more workers than chips.
    const int workers = std::min(sim::resolve_threads(threads), fleet_.servers());
    if (workers > 1) pool_ = std::make_unique<sim::ThreadPool>(workers);
  }

  [[nodiscard]] FleetResult execute() {
    obs::TraceSink* const trace = fleet_.trace_;
    while (ledger_.disposed() < total_) {
      if (now_s_ >= max_s_) {
        r_.truncated = true;
        break;
      }
      if (trace != nullptr) trace->set_now(now_s_);
      if (injector_ != nullptr) {
        while (injector_->due(now_s_)) apply_fault(injector_->pop());
      }
      if (fleet_.governed_ && now_s_ >= epoch_start_s_ + epoch_len_s_) close_epoch(false);
      expire_deadlines();
      admit_due();
      dispatch_hedges();
      if (!run_window() && !skip_idle()) break;
    }
    if (trace != nullptr) trace->set_now(now_s_);
    if (fleet_.governed_) {
      close_epoch(true);
    } else if (fleet_.metrics_ != nullptr) {
      // An open-loop run has no epochs: one end-of-run row (epoch 0, at
      // the span). It charges no governor energy, so its power reads 0.
      chip_power_w_.assign(fleet_.chips_.size(), 0.0);
      snapshot_metrics(now_s_, /*epoch_energy_j=*/0.0);
    }
    if (trace != nullptr) trace->finish();
    return assemble();
  }

 private:
  /// How a copy reaches a chip queue.
  enum class Placement {
    kPrimary,     ///< an admitted dispatch attempt
    kHedge,       ///< the hedged duplicate
    kRedispatch,  ///< a crash victim moved by failover (keeps its copy id)
  };

  [[nodiscard]] ChipServer& chip(int s) const {
    return *fleet_.chips_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool critical(int tenant) const {
    return tenants_[static_cast<std::size_t>(tenant)].spec->latency_critical;
  }
  /// Run context for invariant-violation messages: where in the run the
  /// fleet was when the invariant broke — the difference between a
  /// diagnosable failure and a needle in a 1000-chip sweep.
  [[nodiscard]] std::string context() const {
    std::ostringstream os;
    os << "[t=" << now_s_ << "s, epoch " << epoch_index_ << ", disposed "
       << ledger_.disposed() << "/" << total_ << "]";
    return os.str();
  }
  /// Snapshot for the orchestration controllers (live queue depths, last
  /// closed epoch's utilization).
  [[nodiscard]] std::vector<orch::ChipStatus> chip_status() const {
    std::vector<orch::ChipStatus> status(fleet_.chips_.size());
    for (std::size_t s = 0; s < status.size(); ++s) {
      const ChipServer& c = *fleet_.chips_[s];
      status[s].chip = static_cast<int>(s);
      status[s].group = c.group();
      status[s].down = c.down();
      status[s].parked = c.parked();
      status[s].draining = c.draining();
      status[s].outstanding = c.outstanding();
      status[s].utilization = c.last_epoch_utilization();
      status[s].floor_power = c.floor_power();
    }
    return status;
  }
  /// Traffic is counted once, per tenant; fleet-wide figures sum the rows.
  [[nodiscard]] std::uint64_t fleet_sum(std::uint64_t TenantResult::*counter) const {
    std::uint64_t sum = 0;
    for (const auto& row : r_.tenants) sum += row.*counter;
    return sum;
  }

  // ---- Dispatch ----

  void admit_due() {
    // Admit everything due by now: merge the tenants' arrival streams and
    // the back-off heap in event-time order (ties go to the fresh arrival,
    // then to the lower tenant index, so ids stay in admission order).
    for (;;) {
      const std::size_t t = next_arrival_tenant();
      const bool arrival_due = t < tenants_.size() && tenants_[t].next_arrival_s <= now_s_;
      auto& retries = ledger_.retries;
      const bool retry_due = !retries.empty() && retries.top().due_s <= now_s_;
      if (!arrival_due && !retry_due) break;
      if (arrival_due && (!retry_due || tenants_[t].next_arrival_s <= retries.top().due_s)) {
        admit_arrival(t);
      } else {
        const RetryEntry entry = retries.top();
        retries.pop();
        dispatch(entry.request, entry.due_s, /*fresh=*/false);
      }
    }
  }

  /// The tenant with the earliest pending arrival (lowest index on ties);
  /// tenants_.size() once every tenant has offered all its requests.
  [[nodiscard]] std::size_t next_arrival_tenant() const {
    std::size_t t = tenants_.size();
    for (std::size_t k = 0; k < tenants_.size(); ++k) {
      if (r_.tenants[k].offered >= tenants_[k].total) continue;
      if (t == tenants_.size() || tenants_[k].next_arrival_s < tenants_[t].next_arrival_s) {
        t = k;
      }
    }
    return t;
  }

  void admit_arrival(std::size_t t) {
    TenantState& tenant = tenants_[t];
    TenantResult& row = r_.tenants[t];
    Request req;
    req.id = next_id_++;
    req.tenant = static_cast<int>(t);
    req.tenant_seq = row.offered;
    req.arrival_s = tenant.next_arrival_s;
    req.budget = tenant.budgets.sample(req.tenant_seq);
    last_arrival_s_ = std::max(last_arrival_s_, tenant.next_arrival_s);
    ++row.offered;
    if (row.offered < tenant.total) tenant.next_arrival_s = tenant.arrivals.next().value();
    ledger_.open(req);
    if (fleet_.trace_ != nullptr) {
      fleet_.trace_->emit(obs::EventKind::kAdmit, /*chip=*/-1, req.arrival_s, req.tenant,
                          static_cast<std::int64_t>(req.id));
    }
    dispatch(req, req.arrival_s, /*fresh=*/true);
  }

  // One dispatch attempt at event time `event_s` (arrival or back-off
  // expiry): admit a fresh copy into the picked chip's queue, or back the
  // client off, or shed once the retry budget is spent. With failover and
  // a fully-dark fleet, park until a recovery without charging the retry
  // budget.
  void dispatch(Request req, double event_s, bool fresh) {
    PendingRequest* pr = ledger_.find(req.id);
    NTSERV_ENSURES(pr != nullptr, "dispatch of an untracked request " + context());
    const bool crit = critical(req.tenant);
    if (shed_by_brownout(crit, fresh)) {
      // Brownout shed: deliberate load shedding under the ladder, booked
      // in the same shed column (the tiling invariant holds) plus the
      // brownout attribution so a post-mortem can split deliberate from
      // overload shed.
      ++r_.tenants[static_cast<std::size_t>(req.tenant)].brownout_shed;
      shed(req, event_s, obs::EventKind::kBrownoutShed);
      return;
    }
    const int server = pick_server(req);
    if (server < 0) {
      back_off(*pr, req, event_s, /*charge=*/false);
      return;
    }
    if (fleet_.admission_.admit(chip(server).outstanding(), fleet_.cores_per_server())) {
      enqueue(*pr, req, server, event_s, Placement::kPrimary);
      if (res_.hedging && !pr->hedged && pr->live.size() == 1 && fleet_.servers() > 1 &&
          !hedge_suppressed(crit)) {
        ledger_.hedges.push({event_s + hedge_delay(), req.id, req.id});
      }
      return;
    }
    if (fleet_.admission_.may_retry(req.attempts)) {
      back_off(*pr, req, event_s, /*charge=*/true);
      return;
    }
    shed(req, event_s, obs::EventKind::kShed);
  }

  void shed(const Request& req, double event_s, obs::EventKind kind) {
    ++r_.tenants[static_cast<std::size_t>(req.tenant)].shed;
    if (fleet_.trace_ != nullptr) {
      fleet_.trace_->emit(kind, /*chip=*/-1, event_s, req.tenant,
                          static_cast<std::int64_t>(req.id));
    }
    dispose(req.id);
  }

  // Dispatch the hedged duplicates falling due: a different healthy chip,
  // admitted through the same controller; a rejected hedge is simply
  // dropped (it is opportunistic — the primary still runs).
  void dispatch_hedges() {
    auto& hedges = ledger_.hedges;
    while (!hedges.empty() && hedges.top().due_s <= now_s_) {
      const Timer h = hedges.top();
      hedges.pop();
      PendingRequest* pr = ledger_.find(h.id);
      if (pr == nullptr) continue;                   // already resolved
      if (pr->hedged || pr->live.empty()) continue;  // one hedge max; back-off limbo
      // Re-check at fire time: the ladder may have escalated since the
      // hedge was scheduled, and a hedge is pure extra load.
      if (hedge_suppressed(critical(pr->proto.tenant))) continue;
      // Cross-domain placement: prefer a healthy chip in a *different*
      // failure domain (a hedge against the primary's rack dying),
      // falling back to any healthy chip via the tier scheme.
      const int primary = pr->live.front().server;
      const int server = least_loaded(
          /*healthy_only=*/true, /*exclude=*/primary,
          /*avoid_domain=*/fleet_.chip_domain_[static_cast<std::size_t>(primary)]);
      if (server >= 0 &&
          fleet_.admission_.admit(chip(server).outstanding(), fleet_.cores_per_server())) {
        enqueue(*pr, pr->proto, server, h.due_s, Placement::kHedge);
      }
    }
  }

  // Every copy that reaches a chip queue — primary, hedge, or failover
  // redispatch — goes through here, so the live-copy list, the admitted
  // count, the per-group dispatch ledger (routed fleets), the breakers'
  // dispatch window and the copy's deadline stay consistent by
  // construction.
  void enqueue(PendingRequest& pr, Request req, int server, double event_s, Placement how) {
    ChipServer& target = chip(server);
    TenantResult& row = r_.tenants[static_cast<std::size_t>(req.tenant)];
    req.server = server;
    obs::EventKind kind = obs::EventKind::kRedispatch;
    if (how == Placement::kRedispatch) {
      ++row.redispatched;
    } else {
      req.copy = ledger_.next_copy();
      req.hedge = how == Placement::kHedge;
      pr.proto.attempts = req.attempts;
      ++r_.admitted;
      if (!fleet_.breakers_.empty()) {
        fleet_.breakers_[static_cast<std::size_t>(server)].record_dispatch();
      }
      if (!r_.group_dispatches.empty()) {
        ++r_.group_dispatches[static_cast<std::size_t>(target.group())];
      }
      kind = req.hedge ? obs::EventKind::kHedge : obs::EventKind::kDispatch;
      if (req.hedge) {
        pr.hedged = true;
        ++row.hedged;
      }
    }
    target.queue().push_back(req);
    ledger_.add_copy(pr, {req.copy, server});
    if (fleet_.trace_ != nullptr) {
      fleet_.trace_->emit(kind, server, event_s, req.tenant, static_cast<std::int64_t>(req.id));
    }
    // A redispatched copy keeps its original deadline, and the crash that
    // moved it already marked the request damaged.
    if (how == Placement::kRedispatch) return;
    if (target.down() || target.degraded()) ledger_.mark_damaged(pr);
    if (timeout_s_ > 0.0) {
      ledger_.deadlines.push({event_s + timeout_for(critical(req.tenant)), req.copy, req.id});
    }
  }

  // Back the client off: its next dispatch attempt falls due after the
  // admission back-off schedule's delay, announced as a kRetry event. A
  // charged back-off (admission reject, timeout) spends one attempt of
  // the shared retry budget; an uncharged one parks the request while the
  // fleet is fully dark.
  void back_off(PendingRequest& pr, Request req, double event_s, bool charge) {
    const double due =
        event_s + fleet_.admission_.retry_delay(charge ? req.attempts : 0).value();
    if (fleet_.trace_ != nullptr) {
      fleet_.trace_->emit(obs::EventKind::kRetry, /*chip=*/-1, event_s, req.tenant,
                          static_cast<std::int64_t>(req.id), /*value=*/0.0, /*aux_s=*/due);
    }
    if (charge) {
      ++r_.retries;
      ++req.attempts;
      pr.proto.attempts = req.attempts;
    }
    ledger_.retries.push(RetryEntry{due, req});
  }

  void dispose(std::uint64_t id) {
    ledger_.dispose(id);
    note_recovery();
  }

  [[nodiscard]] int pick_server(const Request& req) {
    // With failover the dispatcher is health-aware: every policy confines
    // itself to chips that are up, and -1 reports a fully-dark fleet.
    // Without it the dispatcher is deliberately health-blind — the
    // baseline every failover comparison is made against.
    const bool avoid_down = res_.failover;
    const int n = fleet_.servers();
    if (fleet_.router_) {
      // Tech routing supersedes the balance policy: the router's standing
      // preference (updated at the barrier) picks the group, least-loaded
      // picks within it; a group with no serving chip falls back
      // fleet-wide and the miss is recorded.
      orch::MultiFleetRouter& router = *fleet_.router_;
      const int pg = router.preferred_group(critical(req.tenant));
      const int best = least_outstanding(
          [&](int s) { return serving(s) && chip(s).group() == pg ? 0 : -1; });
      if (best >= 0) {
        router.note_dispatch(pg, /*fallback=*/false);
        return best;
      }
      const int fb = least_loaded(avoid_down);
      if (fb >= 0) router.note_dispatch(chip(fb).group(), /*fallback=*/true);
      return fb;
    }
    switch (fleet_.config_.policy) {
      case BalancePolicy::kRoundRobin: {
        for (int tried = 0; tried < n; ++tried) {
          const int s = round_robin_next_;
          round_robin_next_ = (round_robin_next_ + 1) % n;
          if (serving(s)) return s;
        }
        // Every chip parked/draining/down: the least-loaded fallback still
        // finds a draining chip, so work is never stranded.
        return least_loaded(avoid_down);
      }
      case BalancePolicy::kLeastLoaded:
        return least_loaded(avoid_down);
      case BalancePolicy::kPowerAware: {
        // Pack in index order while a chip has headroom; beyond that fall
        // back to least-loaded so saturation degrades gracefully.
        const double cap = kPackDepthPerCore * static_cast<double>(fleet_.cores_per_server());
        for (int s = 0; s < n; ++s) {
          if (serving(s) && static_cast<double>(chip(s).outstanding()) < cap) return s;
        }
        return least_loaded(avoid_down);
      }
      case BalancePolicy::kGovernorAware: {
        const int base = least_loaded(avoid_down);
        if (base < 0) return -1;             // fully-dark fleet
        if (!fleet_.governed_) return base;  // nothing to anticipate open-loop
        if (!critical(req.tenant)) return base;  // batch work soaks any chip
        // Steer latency-critical work onto chips that are neither
        // mid-transition nor about to descend at the next epoch boundary
        // (the governor's pending decision, previewed via peek; the
        // running epoch is trusted once a quarter of it has elapsed).
        const double peek_window_s = 0.25 * epoch_len_s_;
        const int best = least_outstanding([&](int s) {
          const bool steady = serving(s) && !chip(s).in_transition(now_s_) &&
                              !chip(s).pending_descent(now_s_, epoch_start_s_, peek_window_s);
          return steady ? 0 : -1;
        });
        if (best < 0) return base;  // every chip descending: nowhere to steer
        if (best != base) ++r_.steered;
        return best;
      }
    }
    return 0;
  }

  // Least-outstanding chip; with `healthy_only`, crashed chips are
  // excluded and -1 means none are up. `exclude` skips one chip (hedge
  // placement: the duplicate must race a different chip). Chips in
  // `avoid_domain` (hedge placement), draining chips and breaker-open
  // chips are progressively worse tiers — used only when nothing better
  // serves, so work is never stranded. Parked chips never take work.
  [[nodiscard]] int least_loaded(bool healthy_only, int exclude = -1,
                                 int avoid_domain = -1) const {
    return least_outstanding([&](int s) {
      const ChipServer& c = chip(s);
      if (s == exclude || c.parked() || (healthy_only && c.down())) return -1;
      const int domain = fleet_.chip_domain_[static_cast<std::size_t>(s)];
      return (avoid_domain >= 0 && domain == avoid_domain ? 1 : 0) + (c.draining() ? 2 : 0) +
             (breaker_open(s) ? 4 : 0);
    });
  }

  /// The chip in the lowest `tier` (negative = ineligible), then with the
  /// fewest outstanding requests, then the lowest index; -1 if none.
  template <typename Tier>
  [[nodiscard]] int least_outstanding(Tier tier) const {
    int best = -1, best_tier = 0;
    for (int s = 0; s < fleet_.servers(); ++s) {
      const int t = tier(s);
      if (t < 0) continue;
      if (best < 0 || t < best_tier ||
          (t == best_tier && chip(s).outstanding() < chip(best).outstanding())) {
        best = s;
        best_tier = t;
      }
    }
    return best;
  }

  [[nodiscard]] bool breaker_open(int s) const {
    const auto& breakers = fleet_.breakers_;
    return !breakers.empty() && !breakers[static_cast<std::size_t>(s)].allow_dispatch();
  }

  [[nodiscard]] bool serving(int s) const {
    const ChipServer& c = chip(s);
    // An open breaker leaves the chip to least_loaded's fallback tier.
    if (c.parked() || c.draining() || breaker_open(s)) return false;
    return !res_.failover || !c.down();
  }

  // The ladder's restrictions, queried at dispatch time. Latency-critical
  // traffic is never restricted; batch traffic loses progressively more.
  [[nodiscard]] bool shed_by_brownout(bool critical, bool fresh_arrival) const {
    if (critical || stage_ < ctrl::BrownoutStage::kShedBatch) return false;
    if (stage_ >= ctrl::BrownoutStage::kCriticalOnly) return true;  // retries too
    return fresh_arrival;  // kShedBatch / kRelaxBatchQos: fresh arrivals only
  }
  [[nodiscard]] bool hedge_suppressed(bool critical) const {
    if (stage_ >= ctrl::BrownoutStage::kCriticalOnly) return true;
    return !critical && stage_ >= ctrl::BrownoutStage::kRelaxBatchQos;
  }
  [[nodiscard]] double timeout_for(bool critical) const {
    if (!critical && stage_ >= ctrl::BrownoutStage::kRelaxBatchQos) {
      return timeout_s_ * ctrl::kBatchTimeoutRelax;
    }
    return timeout_s_;
  }

  // Hedge delay: the tail-at-scale rule — a multiple of the measured
  // running p95, with a configured floor until enough completions exist
  // for the estimate to be a tail.
  [[nodiscard]] double hedge_delay() const {
    if (latency_.tail.count() >= res_.hedge_warmup && latency_.tail.p95() > 0.0) {
      return res_.hedge_multiplier * latency_.tail.p95();
    }
    return res_.hedge_min_delay.value();
  }

  // ---- Timeouts and completions ----

  // Expire per-attempt timeouts due by now: abandon the late copy; once
  // no copy is left racing, retry through the admission back-off schedule
  // or dispose the request as timed out.
  void expire_deadlines() {
    auto& deadlines = ledger_.deadlines;
    while (!deadlines.empty() && deadlines.top().due_s <= now_s_) {
      const Timer d = deadlines.top();
      deadlines.pop();
      PendingRequest* pr = ledger_.find(d.id);
      if (pr == nullptr) continue;  // request already resolved
      const auto lit = pr->find_copy(d.key);
      if (lit == pr->live.end()) continue;  // copy already resolved
      if (!fleet_.breakers_.empty()) {
        fleet_.breakers_[static_cast<std::size_t>(lit->server)].record_failure();
      }
      ledger_.cancel(*lit, chip(lit->server).queue());
      ledger_.drop_copy(*pr, lit);
      if (!pr->live.empty()) continue;  // a sibling copy is still racing
      if (fleet_.admission_.may_retry(pr->proto.attempts)) {
        back_off(*pr, pr->proto, d.due_s, /*charge=*/true);
        continue;
      }
      ++r_.tenants[static_cast<std::size_t>(pr->proto.tenant)].timed_out;
      if (fleet_.trace_ != nullptr) {
        fleet_.trace_->emit(obs::EventKind::kTimeout, /*chip=*/-1, d.due_s, pr->proto.tenant,
                            static_cast<std::int64_t>(d.id));
      }
      dispose(d.id);
    }
  }

  // Resolve the race between a request's copies: the first live copy to
  // complete wins; every sibling is cancelled and the request is
  // disposed. Late completions of abandoned copies are counted as wasted
  // work, never measured twice.
  void complete(const Request& req) {
    // Any completion — even of an abandoned copy — proves the chip can
    // serve, so the breaker credit lands before the dead-copy discard.
    if (!fleet_.breakers_.empty()) {
      fleet_.breakers_[static_cast<std::size_t>(req.server)].record_success();
    }
    if (ledger_.discard(req.copy)) {
      ++r_.wasted_completions;
      return;
    }
    PendingRequest* pr = ledger_.find(req.id);
    NTSERV_ENSURES(pr != nullptr, "completion for an unknown request " + context());
    const auto lit = pr->find_copy(req.copy);
    NTSERV_ENSURES(lit != pr->live.end(),
                   "completion for a copy that is neither live nor dead " + context());
    ledger_.drop_copy(*pr, lit);
    for (const LiveCopy& other : pr->live) ledger_.cancel(other, chip(other.server).queue());
    ledger_.clear_copies(*pr);
    if (req.hedge) ++r_.hedge_wins;
    if (fleet_.trace_ != nullptr) {
      fleet_.trace_->emit(obs::EventKind::kComplete, req.server, req.completion_s, req.tenant,
                          static_cast<std::int64_t>(req.id), /*value=*/req.latency_s(),
                          /*aux_s=*/req.start_s, req.core);
    }
    measure(req, pr->damaged || fault_active());
    dispose(req.id);
  }

  void measure(const Request& req, bool damaged) {
    TenantState& tenant = tenants_[static_cast<std::size_t>(req.tenant)];
    TenantResult& row = r_.tenants[static_cast<std::size_t>(req.tenant)];
    ++row.completed_all;
    if (req.tenant_seq < tenant.spec->warmup_requests) return;
    if (fleet_.metrics_ != nullptr) {
      fleet_.metrics_->observe(fm_.latency_hist, req.latency_s() * 1e6);
    }
    latency_.add(req);
    tenant.latency.add(req);
    ++row.completed;
    const double limit = tenant.spec->qos_p99_limit.value();
    if (limit > 0.0 && req.latency_s() > limit) {
      ++row.sla_violations;
      if (damaged) ++row.degraded_sla_violations;
    }
  }

  // ---- Fault delivery ----

  // Deliver one fault event to its chip (and, for crashes under failover,
  // to the dispatcher).
  void apply_fault(const fault::FaultEvent& e) {
    ChipServer& c = chip(e.chip);
    const auto idx = static_cast<std::size_t>(e.chip);
    if (r_.faults_injected++ == 0) r_.first_fault = Second{e.at_s};
    recovered_at_ = -1.0;  // a new fault reopens the recovery window
    switch (e.kind) {
      case fault::FaultKind::kCrash:
        // A domain-tagged crash is one chip of a correlated outage: arm
        // the autoscaler's emergency wake for the next barrier.
        if (e.domain >= 0) domain_outage_pending_ = true;
        if (c.down()) return;  // scripted double-crash: idempotent
        ++chips_down_;
        crash(e.chip);
        break;
      case fault::FaultKind::kRecover:
        if (!c.down()) return;
        --chips_down_;
        c.recover(now_s_);
        break;
      case fault::FaultKind::kDegrade:
        // A degrade is a serving failure from the breaker's viewpoint:
        // errors on this chip count toward its trip rate.
        if (!fleet_.breakers_.empty()) fleet_.breakers_[idx].record_failure();
        if (chip_degraded_[idx] == 0) {
          chip_degraded_[idx] = 1;
          ++chips_degraded_;
        }
        c.degrade(e.freq_cap, e.core_cap);
        c.notify_error();  // governor guardband engages
        ledger_.damage_residents(e.chip);
        break;
      case fault::FaultKind::kRestore:
        if (chip_degraded_[idx] == 1) {
          chip_degraded_[idx] = 0;
          --chips_degraded_;
        }
        c.restore();
        break;
      case fault::FaultKind::kDomainOutage:
      case fault::FaultKind::kThermalEmergency:
        // Domain-level kinds expand to per-chip primitives when the
        // schedule is resolved; the injector never delivers them.
        NTSERV_EXPECTS(false, "unexpanded domain-level fault reached delivery " + context());
        break;
    }
    note_recovery();
  }

  void crash(int s) {
    ChipServer& victim = chip(s);
    std::vector<Request> victims = victim.crash(now_s_);
    ledger_.damage_residents(s);
    // A cancelled (dead) copy in service would only have its completion
    // discarded: the crash discards it now, as wasted work, and neither
    // re-runs nor re-places it. Queues never hold dead copies.
    std::erase_if(victims, [this](const Request& r) {
      if (!ledger_.discard(r.copy)) return false;
      ++r_.wasted_completions;
      return true;
    });
    if (!res_.failover) {
      // Health-blind dispatch: the in-flight losses restart on this same
      // chip at recovery, ahead of the queued backlog (they are older),
      // and the queue waits out the outage.
      for (auto rit = victims.rbegin(); rit != victims.rend(); ++rit) {
        victim.queue().push_front(*rit);
      }
      return;
    }
    // Health-aware failover: in-flight losses first (they are the oldest
    // work), then the drained queue, each re-placed on the least-loaded
    // healthy chip. Re-placement bypasses admission — the balancer must
    // land displaced work somewhere.
    auto& qd = victim.queue();
    victims.insert(victims.end(), qd.begin(), qd.end());
    qd.clear();
    for (const Request& r : victims) {
      PendingRequest* pr = ledger_.find(r.id);
      NTSERV_ENSURES(pr != nullptr, "crash victim is untracked " + context());
      const auto lit = pr->find_copy(r.copy);
      NTSERV_ENSURES(lit != pr->live.end(),
                     "crash victim is neither live nor dead " + context());
      ledger_.drop_copy(*pr, lit);
      const int target = least_loaded(/*healthy_only=*/true);
      if (target >= 0) {
        enqueue(*pr, r, target, now_s_, Placement::kRedispatch);
      } else {
        // Fully-dark fleet: back to the client as a parked retry.
        back_off(*pr, pr->proto, now_s_, /*charge=*/false);
      }
    }
  }

  [[nodiscard]] bool fault_active() const { return chips_down_ > 0 || chips_degraded_ > 0; }

  // The recovery point: every fault window closed *and* every request a
  // window touched disposed — the backlog a crash leaves behind is part
  // of the outage, not of normal operation. A later fault reopens it.
  void note_recovery() {
    if (r_.faults_injected == 0 || recovered_at_ >= 0.0) return;
    if (!fault_active() && ledger_.damaged() == 0) recovered_at_ = now_s_;
  }

  // ---- Data plane: lookahead windows ----
  //
  // Between two fleet-visible events nothing crosses chips:
  // ChipServer::start_services and ::advance touch only the chip's own
  // clusters, slots, queue and accounting, while dispatch, timeouts,
  // hedges, faults and the epoch barrier wait for the coordinator. So
  // after the coordinator's stages each busy chip runs its own quanta, on
  // the same now += dt sequence the serial loop stepped, until the window
  // ends or the chip first goes idle (without dispatch an idle chip stays
  // idle). Up to min(threads, servers) pool workers claim chips one at a
  // time. Completions are staged per chip with their quantum and drained
  // serially in (quantum, chip) order with the clock at that quantum: the
  // order and the clock of the serial loop. Every worker count (one
  // worker runs the same path) thus produces bit-identical results and
  // telemetry.

  /// Run one window from now_s_ and drain it. Returns false, with the
  /// clock untouched, when no chip has work (the whole fleet is idle).
  [[nodiscard]] bool run_window() {
    busy_.clear();
    for (ChipWindow& w : windows_) {
      w.chip->start_services(now_s_);
      if (w.chip->busy_cores() > 0) busy_.push_back(&w);
    }
    if (busy_.empty()) return false;
    const double end_s = window_end();
    if (pool_ == nullptr || busy_.size() == 1) {
      for (ChipWindow* w : busy_) run_chip(*w, end_s);
    } else {
      pool_->run_indexed(busy_.size(),
                         [this, end_s](std::size_t i) { run_chip(*busy_[i], end_s); });
    }
    drain_window();
    return true;
  }

  /// Where the window ends: the first quantum at or after the earliest
  /// pending fleet-visible event belongs to the coordinator again. While a
  /// request races two live copies, or a cancelled copy is still in
  /// service, the window is one quantum: a race's first completion cancels
  /// its sibling, perhaps out of another chip's queue, and the run stops
  /// one quantum after its last disposal even if a dead copy still runs.
  [[nodiscard]] double window_end() const {
    if (ledger_.racing() > 0 || ledger_.dead() > 0) return now_s_;
    double end_s = std::min(next_event(), max_s_);
    if (fleet_.governed_) end_s = std::min(end_s, epoch_start_s_ + epoch_len_s_);
    return end_s;
  }

  // Step one chip through the window: advance (unless its voltage domain
  // is mid-swing), then start the next quantum's services, stopping at
  // the window end or at the chip's first idle quantum.
  void run_chip(ChipWindow& w, double end_s) const {
    ChipServer& c = *w.chip;
    double t = now_s_;
    for (;;) {
      if (!c.in_transition(t)) {
        c.advance(t, dt_, FleetConfig::quantum, w.done);
        w.quantum.resize(w.done.size(), w.quanta);
      }
      ++w.quanta;
      t += dt_;
      if (t >= end_s) return;
      c.start_services(t);
      if (c.busy_cores() == 0) return;
    }
  }

  // Complete the staged requests quantum by quantum, ascending chip index
  // within a quantum, with now_s_ and the trace clock at that quantum
  // (complete() stamps the recovery point with now_s_, and a breaker
  // closing on a success stamps the trace clock). The clock is left at
  // the fleet's first idle quantum or the window end. After the quantum
  // that disposes the last request no chip is busy (a dead copy in
  // service would have made this a one-quantum window), so the run stops
  // one quantum past it, as a per-quantum loop would.
  void drain_window() {
    std::size_t quanta = 0;
    for (const ChipWindow* w : busy_) quanta = std::max(quanta, w->quanta);
    for (std::size_t k = 0; k < quanta; ++k) {
      if (fleet_.trace_ != nullptr) fleet_.trace_->set_now(now_s_);
      for (ChipWindow* w : busy_) {
        while (w->drained < w->done.size() && w->quantum[w->drained] == k) {
          complete(w->done[w->drained++]);
        }
      }
      now_s_ += dt_;
    }
    for (ChipWindow* w : busy_) {
      w->quanta = 0;
      w->done.clear();
      w->quantum.clear();
      w->drained = 0;
    }
  }

  /// The earliest pending event no chip can see coming: an arrival, a
  /// back-off expiry, a timeout, a hedge, a fault, or a stalled chip's
  /// transition end when it has queued work (infinity when none).
  [[nodiscard]] double next_event() const {
    const std::size_t t = next_arrival_tenant();
    double next = t < tenants_.size() ? tenants_[t].next_arrival_s
                                      : std::numeric_limits<double>::infinity();
    const auto& l = ledger_;
    if (!l.retries.empty()) next = std::min(next, l.retries.top().due_s);
    if (!l.deadlines.empty()) next = std::min(next, l.deadlines.top().due_s);
    if (!l.hedges.empty()) next = std::min(next, l.hedges.top().due_s);
    if (injector_ != nullptr) next = std::min(next, injector_->next_time());
    for (const auto& c : fleet_.chips_) {
      if (c->in_transition(now_s_) && !c->queue().empty()) {
        next = std::min(next, c->stall_until());
      }
    }
    return next;
  }

  // Whole fleet idle: every chip would sleep, so jump straight to the
  // next event on the base-frequency cycle grid (the fleet-level analogue
  // of event skipping; the skipped span is credited to sleep in the
  // energy accounting). Governed runs additionally stop at the epoch
  // boundary so every chip's governor observes every epoch, idle or not.
  // Returns false when nothing is left to wait for.
  [[nodiscard]] bool skip_idle() {
    const double next = next_event();
    if (!std::isfinite(next)) {
      // The last request can be disposed *inside* this iteration (a
      // timeout expiry with the fleet already idle).
      if (ledger_.disposed() >= total_) return false;
      // A crashed chip that never recovers can strand its queue (and,
      // health-blind, its in-flight work) with no future event: run out
      // the clock so the stranded requests surface as in_flight on a
      // truncated result instead of tripping the invariant below.
      if (chips_down_ > 0) {
        now_s_ = max_s_;
        return true;
      }
      NTSERV_EXPECTS(false, "idle fleet with requests unaccounted for " + context());
    }
    double target =
        std::max(now_s_ + 1.0 / base_f_, std::ceil(next * base_f_) / base_f_);
    if (fleet_.governed_) target = std::min(target, epoch_start_s_ + epoch_len_s_);
    now_s_ = std::min(target, max_s_);
    return true;
  }

  // ---- Epoch barrier ----
  //
  // One fixed order: cap split -> chip close -> brownout -> breakers ->
  // router -> autoscaler -> metrics. Cap budgets are
  // refreshed *before* the chips close (so each governor's decide() is
  // clamped by the budget its queue earned); the ladder, breakers,
  // routing and scaling react *after* (to the freshly measured epoch).

  void close_epoch(bool final_partial) {
    obs::PhaseTimers::Scope barrier_scope(fleet_.timers_, "epoch-barrier");
    const double duration = now_s_ - epoch_start_s_;
    if (fleet_.capper_) fleet_.split_power_cap(chip_status(), /*apply_now=*/false);
    const double epoch_energy_j = close_chips(duration, final_partial);
    if (!final_partial) {
      if (fleet_.brownout_) step_brownout();
      for (auto& b : fleet_.breakers_) {
        b.close_epoch();
        if (b.state() == ctrl::BreakerState::kOpen) ++r_.breaker_open_epochs;
      }
      if (fleet_.router_) fleet_.router_->observe_epoch(epoch_index_, chip_status());
      if (fleet_.autoscaler_) step_autoscaler();
    }
    if (fleet_.metrics_ != nullptr) snapshot_metrics(duration, epoch_energy_j);
    ++epoch_index_;
    epoch_start_s_ = now_s_;
  }

  // Close the epoch on every chip: record it, charge its energy, and
  // (unless final) take each chip's next decision, beginning its
  // transition stall on a change. Returns the epoch's fleet energy.
  [[nodiscard]] double close_chips(double duration, bool final_partial) {
    double epoch_energy_j = 0.0;
    if (fleet_.metrics_ != nullptr) chip_power_w_.assign(fleet_.chips_.size(), 0.0);
    for (std::size_t s = 0; s < fleet_.chips_.size(); ++s) {
      ChipServer& c = *fleet_.chips_[s];
      const auto outcome = c.close_epoch(now_s_, duration, epoch_index_, final_partial);
      if (!outcome.emitted) continue;
      const ctrl::EpochRecord& rec = outcome.record;
      r_.energy += Joule{outcome.energy_j};
      epoch_energy_j += outcome.energy_j;
      if (fleet_.metrics_ != nullptr && duration > 0.0) {
        chip_power_w_[s] = outcome.energy_j / duration;
      }
      if (!r_.group_energy.empty()) {
        r_.group_energy[static_cast<std::size_t>(c.group())] += Joule{outcome.energy_j};
      }
      if (outcome.transition_s > 0.0) ++r_.transitions;
      // Recorded per-epoch overlaps sum to the realized stall time, so the
      // records and the total stay consistent by construction.
      r_.transition_time_total += rec.transition_time;
      if (rec.transition) ++r_.transition_epochs;
      if (rec.violation) ++r_.qos_violation_epochs;
      if (rec.margin > 0.0) ++r_.guardband_epochs;
      if (rec.capped) ++r_.cap_clamp_epochs;
      r_.epochs.push_back(rec);
    }
    if (duration > 0.0) {
      const double realized_power = epoch_energy_j / duration;
      r_.peak_epoch_power = Watt{std::max(r_.peak_epoch_power.value(), realized_power)};
      if (fleet_.capper_ &&
          realized_power > fleet_.capper_->config().fleet_cap.value() * (1.0 + 1e-9)) {
        ++r_.cap_violation_epochs;
      }
    }
    return epoch_energy_j;
  }

  void step_brownout() {
    // Overload pressure: outstanding work per serving core. A fleet with
    // nothing serving but work outstanding is infinitely pressured — the
    // ladder pins at its maximum stage until capacity returns.
    std::uint64_t outstanding_total = 0;
    int serving_cores = 0;
    for (const auto& c : fleet_.chips_) {
      outstanding_total += static_cast<std::uint64_t>(c->outstanding());
      if (!c->down() && !c->parked() && !c->draining()) {
        serving_cores += fleet_.cores_per_server();
      }
    }
    const double pressure =
        serving_cores > 0
            ? static_cast<double>(outstanding_total) / static_cast<double>(serving_cores)
            : (outstanding_total > 0 ? 1e9 : 0.0);
    // The stage set here governs the *upcoming* epoch's dispatches.
    stage_ = fleet_.brownout_->observe(pressure);
    ++r_.brownout_stage_epochs[static_cast<std::size_t>(stage_)];
    if (stage_ == ctrl::BrownoutStage::kNormal) return;
    ++r_.brownout_epochs;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (!tenants_[t].spec->latency_critical) ++r_.tenants[t].brownout_epochs;
    }
  }

  void step_autoscaler() {
    orch::Autoscaler& autoscaler = *fleet_.autoscaler_;
    obs::TraceSink* const trace = fleet_.trace_;
    const bool emergency = domain_outage_pending_;
    domain_outage_pending_ = false;
    bool acted = false;
    for (const orch::ScaleDecision& d : autoscaler.decide(chip_status(), emergency)) {
      acted = true;
      ChipServer& c = chip(d.chip);
      switch (d.action) {
        case orch::ScaleAction::kUnpark: {
          // Warm/cold ladder: a recently-parked chip wakes at a fraction
          // of the full latency.
          const Second wake = autoscaler.config().wake_latency_for(now_s_ - c.parked_since());
          // Reporting slice only: the wake stall is charged through the
          // overlapped epochs like any transition.
          r_.wake_energy += fleet_.managers_[static_cast<std::size_t>(c.group())]->wake_energy(
              c.frequency(), wake);
          c.unpark(now_s_, wake);
          ++r_.autoscale_unparks;
          if (emergency) ++r_.emergency_wakes;
          if (trace != nullptr) {
            trace->emit_now(obs::EventKind::kUnpark, d.chip, /*tenant=*/-1,
                            /*id=*/emergency ? 1 : 0, /*value=*/wake.value());
          }
          break;
        }
        case orch::ScaleAction::kCancelDrain:
          c.cancel_drain();
          if (trace != nullptr) trace->emit_now(obs::EventKind::kCancelDrain, d.chip);
          break;
        case orch::ScaleAction::kDrain:
          c.begin_drain();
          ++r_.autoscale_drains;
          if (trace != nullptr) trace->emit_now(obs::EventKind::kDrain, d.chip);
          break;
        case orch::ScaleAction::kPark:
          // Re-check live state: the decision was made on a snapshot.
          if (!c.down() && !c.parked() && c.outstanding() == 0) {
            c.park(now_s_);
            ++r_.autoscale_parks;
            if (trace != nullptr) trace->emit_now(obs::EventKind::kPark, d.chip);
          }
          break;
      }
    }
    // The budgets split at the top of this barrier assumed the pre-action
    // fleet; re-split over the post-action survivors so a newly-woken chip
    // does not serve an entire epoch on a zero budget. Applied without a
    // transition stall (same barrier).
    if (acted && fleet_.capper_) {
      fleet_.split_power_cap(chip_status(), /*apply_now=*/true);
    }
  }

  void snapshot_metrics(double duration, double epoch_energy_j) {
    obs::MetricsRegistry& m = *fleet_.metrics_;
    int parked_chips = 0;
    for (std::size_t s = 0; s < fleet_.chips_.size(); ++s) {
      const ChipServer& c = *fleet_.chips_[s];
      const ChipMetricIds& ids = chip_metric_ids_[s];
      m.set(ids.queue, static_cast<double>(c.outstanding()));
      m.set(ids.freq, c.frequency().value() / 1e9);
      m.set(ids.power, chip_power_w_[s]);
      m.set(ids.util, c.last_epoch_utilization());
      m.set(ids.breaker,
            fleet_.breakers_.empty()
                ? 0.0
                : static_cast<double>(static_cast<int>(fleet_.breakers_[s].state())));
      m.set(ids.parked, c.parked() ? 1.0 : 0.0);
      m.set(ids.down, c.down() ? 1.0 : 0.0);
      if (c.parked()) ++parked_chips;
    }
    const StreamingPercentiles& tail = latency_.tail;
    m.set(fm_.offered, static_cast<double>(fleet_sum(&TenantResult::offered)));
    m.set(fm_.completed, static_cast<double>(fleet_sum(&TenantResult::completed_all)));
    m.set(fm_.shed, static_cast<double>(fleet_sum(&TenantResult::shed)));
    m.set(fm_.timed_out, static_cast<double>(fleet_sum(&TenantResult::timed_out)));
    m.set(fm_.retries, static_cast<double>(r_.retries));
    m.set(fm_.p50, tail.count() > 0 ? tail.p50() * 1e6 : 0.0);
    m.set(fm_.p95, tail.count() > 0 ? tail.p95() * 1e6 : 0.0);
    m.set(fm_.p99, tail.count() > 0 ? tail.p99() * 1e6 : 0.0);
    m.set(fm_.brownout, static_cast<double>(static_cast<int>(stage_)));
    m.set(fm_.power, duration > 0.0 ? epoch_energy_j / duration : 0.0);
    m.set(fm_.parked, static_cast<double>(parked_chips));
    m.set(fm_.in_flight, static_cast<double>(ledger_.in_flight()));
    m.snapshot(epoch_index_, now_s_);
  }

  // ---- Result assembly ----

  [[nodiscard]] FleetResult assemble() {
    FleetResult& r = r_;
    r.completed = fleet_sum(&TenantResult::completed);
    r.offered = fleet_sum(&TenantResult::offered);
    r.shed = fleet_sum(&TenantResult::shed);
    r.completed_all = fleet_sum(&TenantResult::completed_all);
    r.timed_out = fleet_sum(&TenantResult::timed_out);
    r.hedged = fleet_sum(&TenantResult::hedged);
    r.redispatched = fleet_sum(&TenantResult::redispatched);
    r.brownout_shed = fleet_sum(&TenantResult::brownout_shed);
    r.sla_violations = fleet_sum(&TenantResult::sla_violations);
    r.degraded_sla_violations = fleet_sum(&TenantResult::degraded_sla_violations);
    ledger_.close(r, context());
    r.shed_rate =
        r.offered > 0 ? static_cast<double>(r.shed) / static_cast<double>(r.offered) : 0.0;
    if (recovered_at_ >= 0.0 && !r.truncated) {
      r.recovered = true;
      r.time_to_recover = Second{recovered_at_ - r.first_fault.value()};
    }
    for (const auto& b : fleet_.breakers_) r.breaker_trips += b.trips();
    r.span_seconds = Second{now_s_};
    r.span_cycles = static_cast<Cycle>(std::llround(now_s_ * base_f_));
    latency_.report(r);
    if (last_arrival_s_ > 0.0) {
      r.offered_rate = static_cast<double>(r.offered) / last_arrival_s_;
    }
    if (now_s_ > 0.0) {
      r.throughput = static_cast<double>(r.completed_all) / now_s_;
      // Goodput: measured completions that met their tenant's bound.
      r.goodput = static_cast<double>(r.completed - r.sla_violations) / now_s_;
    }
    double busy_core_seconds = 0.0, freq_seconds = 0.0, governed_seconds = 0.0;
    double parked_s = 0.0;
    r.server_active_fraction.reserve(fleet_.chips_.size());
    for (const auto& c : fleet_.chips_) {
      busy_core_seconds += c->busy_core_seconds();
      freq_seconds += c->freq_seconds();
      governed_seconds += c->governed_seconds();
      parked_s += c->parked_seconds(now_s_);
      r.server_active_fraction.push_back(now_s_ > 0.0 ? c->active_seconds() / now_s_ : 0.0);
    }
    if (now_s_ > 0.0) {
      const int total_cores = fleet_.servers() * fleet_.cores_per_server();
      r.utilization = busy_core_seconds / (now_s_ * static_cast<double>(total_cores));
    }
    r.avg_frequency_ghz =
        governed_seconds > 0.0 ? freq_seconds / governed_seconds / 1e9 : 0.0;
    r.parked_seconds = Second{parked_s};
    if (fleet_.capper_) r.fleet_cap = fleet_.capper_->config().fleet_cap;
    if (fleet_.router_) r.router_epochs = fleet_.router_->epochs();
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      TenantResult& row = r.tenants[t];
      row.shed_rate = row.offered > 0
                          ? static_cast<double>(row.shed) / static_cast<double>(row.offered)
                          : 0.0;
      tenants_[t].latency.report(row);
      for (const auto& c : fleet_.chips_) {
        row.busy_core_seconds += c->tenant_busy_seconds(static_cast<int>(t));
      }
      row.busy_share =
          busy_core_seconds > 0.0 ? row.busy_core_seconds / busy_core_seconds : 0.0;
      // Energy attribution by occupied core time: the tenant that kept the
      // cores busy carries the matching share of the envelope energy
      // (idle/sleep overhead rides along proportionally).
      row.energy = Joule{r.energy.value() * row.busy_share};
    }
    return std::move(r_);
  }

  ClusterFleet& fleet_;
  const ResilienceConfig& res_;
  const double base_f_;
  const double max_s_;
  const double dt_;  ///< master wall quantum
  /// The epoch is a *wall-time* control interval sized at the base
  /// frequency: a governor that slowed a chip's clock must not also slow
  /// its own reaction time. All chips share the boundary grid; each makes
  /// its own decision at it.
  const double epoch_len_s_;
  const double timeout_s_;

  FleetResult r_;
  std::vector<TenantState> tenants_;
  std::uint64_t total_ = 0;  ///< requests the tenants will offer in all
  RequestLedger ledger_;
  LatencyStats latency_;
  std::uint64_t next_id_ = 0;           ///< global admission-order sequence
  double now_s_ = 0.0;
  double last_arrival_s_ = 0.0;
  int round_robin_next_ = 0;
  std::uint64_t epoch_index_ = 0;
  double epoch_start_s_ = 0.0;
  ctrl::BrownoutStage stage_ = ctrl::BrownoutStage::kNormal;

  // Fault state (idle on a healthy run).
  std::unique_ptr<fault::FaultInjector> injector_;
  int chips_down_ = 0;
  int chips_degraded_ = 0;
  std::vector<char> chip_degraded_;
  double recovered_at_ = -1.0;  ///< recovery point (-1 while a fault is open)
  /// A correlated (domain-tagged) crash was delivered since the last
  /// barrier: the autoscaler's next decide() runs in emergency mode.
  bool domain_outage_pending_ = false;

  std::vector<ChipMetricIds> chip_metric_ids_;
  FleetMetricIds fm_{};
  std::vector<double> chip_power_w_;  ///< last closed epoch, per chip

  std::vector<ChipWindow> windows_;  ///< one per chip, reused window to window
  std::vector<ChipWindow*> busy_;    ///< chips with work in the current window
  std::unique_ptr<sim::ThreadPool> pool_;
};

FleetResult ClusterFleet::run(int threads) {
  obs::PhaseTimers::Scope run_scope(timers_, "fleet-run");
  return Run{*this, threads}.execute();
}

FleetResult ClusterFleet::run(const ShardPlan& plan, int threads) {
  return run(std::min(sim::resolve_threads(threads), plan.shard_count()));
}

Joule fleet_energy(const FleetResult& result, const pm::PowerManager& manager,
                   Hertz frequency) {
  NTSERV_EXPECTS(frequency.value() > 0.0, "frequency must be positive");
  const Second span = result.span_seconds.value() > 0.0
                          ? result.span_seconds
                          : Second{static_cast<double>(result.span_cycles) /
                                   frequency.value()};
  Joule total{0.0};
  for (double duty : result.server_active_fraction) {
    total += manager.energy_for_duty(frequency, duty, span);
  }
  return total;
}

}  // namespace ntserv::dc
