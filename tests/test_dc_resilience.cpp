#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dc/scenario.hpp"
#include "workload/profile.hpp"

namespace ntserv::dc {
namespace {

ArrivalConfig poisson(double rate) {
  ArrivalConfig a;
  a.kind = ArrivalKind::kPoisson;
  a.rate = rate;
  return a;
}

/// Small, fast two-chip fleet shared by the behavioural tests: light
/// Poisson traffic in the default tenant.
FleetConfig small_config() {
  FleetConfig cfg;
  cfg.profile = workload::WorkloadProfile::web_search();
  cfg.frequency = ghz(2.0);
  cfg.servers = 2;
  cfg.warm_instructions = 60'000;
  cfg.seed = 3;
  TenantSpec& t = cfg.tenants[0];
  t.user_instructions_per_request = 3'000;
  t.arrival = poisson(20'000.0);
  t.requests = 80;
  t.warmup_requests = 10;
  return cfg;
}

/// small_config() on one chip at `rate` requests/s.
FleetConfig one_chip(double rate) {
  FleetConfig cfg = small_config();
  cfg.servers = 1;
  cfg.tenants[0].arrival = poisson(rate);
  return cfg;
}

void expect_tiling(const FleetResult& r) {
  EXPECT_EQ(r.offered, r.completed_all + r.shed + r.timed_out + r.in_flight);
  std::uint64_t offered = 0, completed = 0, shed = 0, timed_out = 0, in_flight = 0;
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.offered, t.completed_all + t.shed + t.timed_out + t.in_flight)
        << "tenant " << t.name;
    offered += t.offered;
    completed += t.completed_all;
    shed += t.shed;
    timed_out += t.timed_out;
    in_flight += t.in_flight;
  }
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(completed, r.completed_all);
  EXPECT_EQ(shed, r.shed);
  EXPECT_EQ(timed_out, r.timed_out);
  EXPECT_EQ(in_flight, r.in_flight);
}

TEST(Resilience, HealthyFleetIsBitIdenticalWithResilienceArmed) {
  // Failover/timeout/hedging must be pure overhead-free bookkeeping while
  // nothing fails: same completions, same tail, same span.
  auto cfg = small_config();
  const FleetResult plain = FleetRunner{cfg}.run({.threads = 1});
  cfg.resilience.failover = true;
  cfg.resilience.timeout = Second{5e-3};  // far above any healthy latency
  const FleetResult armed = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_EQ(plain.completed, armed.completed);
  EXPECT_DOUBLE_EQ(plain.p99.value(), armed.p99.value());
  EXPECT_EQ(plain.span_cycles, armed.span_cycles);
  EXPECT_EQ(armed.timed_out, 0u);
  EXPECT_EQ(armed.redispatched, 0u);
}

TEST(Resilience, CrashWithoutFailoverPaysTheOutageInLatency) {
  auto cfg = small_config();
  const FleetResult healthy = FleetRunner{cfg}.run({.threads = 1});
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash},
                       {2.0e-3, 0, fault::FaultKind::kRecover}};
  const FleetResult r = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.faults_injected, 2u);
  // Nothing is lost: in-flight work restarts locally at recovery and the
  // dead chip's queue waits out the outage...
  EXPECT_EQ(r.offered, r.completed_all);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.timed_out, 0u);
  EXPECT_EQ(r.redispatched, 0u);
  // ...so the ~1ms outage shows up in the tail instead.
  EXPECT_GT(r.p99.value(), healthy.p99.value() * 5.0);
  EXPECT_TRUE(r.recovered);
  EXPECT_GT(r.time_to_recover.value(), 0.0);
  expect_tiling(r);
}

TEST(Resilience, FailoverKeepsTheTailNearHealthy) {
  auto cfg = small_config();
  const FleetResult healthy = FleetRunner{cfg}.run({.threads = 1});
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash},
                       {2.0e-3, 0, fault::FaultKind::kRecover}};
  const FleetResult blind = FleetRunner{cfg}.run({.threads = 1});
  cfg.resilience.failover = true;
  const FleetResult failover = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_FALSE(failover.truncated);
  EXPECT_EQ(failover.offered, failover.completed_all);
  EXPECT_EQ(failover.timed_out, 0u);
  // The crash drains the victim onto the healthy chip, so the outage
  // barely moves the tail while the blind fleet's explodes.
  EXPECT_LT(failover.p99.value(), blind.p99.value() / 2.0);
  EXPECT_LT(failover.p99.value(), healthy.p99.value() * 3.0);
  expect_tiling(failover);
}

TEST(Resilience, UnrecoveredCrashStrandsInFlightWorkWithoutFailover) {
  auto cfg = small_config();
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash}};  // never recovers
  cfg.max_cycles = 40'000'000;  // bound the wait for work that cannot finish
  const FleetResult r = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_TRUE(r.truncated);
  EXPECT_GT(r.in_flight, 0u);
  EXPECT_FALSE(r.recovered);
  expect_tiling(r);
}

TEST(Resilience, FailoverSurvivesAnUnrecoveredCrash) {
  auto cfg = small_config();
  cfg.faults.events = {{1.0e-3, 0, fault::FaultKind::kCrash}};
  cfg.resilience.failover = true;
  const FleetResult r = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.offered, r.completed_all);
  EXPECT_EQ(r.in_flight, 0u);
  expect_tiling(r);
}

TEST(Resilience, TimeoutsExhaustTheRetryBudgetOnADarkFleet) {
  auto cfg = one_chip(10'000.0);
  cfg.tenants[0].requests = 30;
  cfg.tenants[0].warmup_requests = 5;
  cfg.faults.events = {{0.5e-3, 0, fault::FaultKind::kCrash}};  // forever
  cfg.resilience.timeout = Second{50e-6};
  const FleetResult r = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_FALSE(r.truncated);
  // Every request that had not finished by the crash times out, retries
  // through the back-off budget onto the same dead chip, and gives up.
  EXPECT_GT(r.timed_out, 0u);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.offered, r.completed_all + r.timed_out + r.shed);
  expect_tiling(r);
}

TEST(Resilience, HedgingDuplicatesSlowRequestsAndFirstCompletionWins) {
  // 60 krps: enough queueing for hedges to fire.
  auto cfg = small_config();
  cfg.tenants[0].arrival = poisson(60'000.0);
  cfg.resilience.hedging = true;
  cfg.resilience.hedge_min_delay = Second{5e-6};
  cfg.resilience.hedge_warmup = 1'000'000;  // pin the delay at hedge_min_delay
  const FleetResult r = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.hedged, 0u);
  EXPECT_LE(r.hedged, r.offered);  // at most one hedge per request
  EXPECT_LE(r.hedge_wins, r.hedged);
  // Every loser copy is either dequeued in time or its completion is
  // discarded as wasted work; requests are never double-counted.
  EXPECT_EQ(r.offered, r.completed_all);
  EXPECT_LE(r.wasted_completions, r.hedged);
  expect_tiling(r);
}

// ---- Crash victims that are cancelled (dead) copies ----
//
// A copy cancelled while in service (a hedge loser, or an attempt
// abandoned by its timeout) keeps running until its completion is
// discarded. A crash must discard it then and there, as wasted work:
// never re-place it under failover (its request may already be disposed,
// or still pending with no live copy), never re-run it at recovery.

/// Data Serving at twice its registry load with a short warm, failover
/// on, and chip 1 crashed for 100 us from `crash_s`.
FleetConfig crash_probe(double crash_s) {
  FleetConfig c = Scenario::by_name("dataserving-lognormal-budget");
  c.warm_instructions = 100'000;
  c.tenants[0].requests = 150;
  c.tenants[0].arrival.rate *= 2.0;
  c.resilience.failover = true;
  c.faults.events = {{crash_s, 1, fault::FaultKind::kCrash},
                     {crash_s + 100e-6, 1, fault::FaultKind::kRecover}};
  return c;
}

TEST(Resilience, FailoverCrashDiscardsDeadHedgeLosers) {
  // Nearly every request hedges after 5 us; at 210 us chip 1 serves a
  // hedge loser whose request another chip already completed.
  FleetConfig c = crash_probe(210e-6);
  c.resilience.hedging = true;
  c.resilience.hedge_multiplier = 1.0;
  c.resilience.hedge_min_delay = microseconds(5.0);
  c.resilience.hedge_warmup = 1'000'000;
  const FleetResult r = FleetRunner{c}.run({.threads = 1});
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.offered, r.completed_all);
  EXPECT_GT(r.redispatched, 0u);
  EXPECT_LE(r.wasted_completions, r.hedged);  // one loser per hedged request
  expect_tiling(r);
}

TEST(Resilience, FailoverCrashDiscardsDeadCopiesOfPendingRequests) {
  // A 20 us timeout abandons copies in service while their requests wait
  // out a back-off; at 190 us chip 1 serves such a copy.
  FleetConfig c = crash_probe(190e-6);
  c.resilience.timeout = microseconds(20.0);
  c.admission.enabled = true;
  c.admission.max_outstanding_per_core = 1e9;
  const FleetResult r = FleetRunner{c}.run({.threads = 1});
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_GT(r.timed_out, 0u);
  expect_tiling(r);
}

TEST(Resilience, HealthBlindCrashDoesNotRerunDeadCopies) {
  // Two one-core chips, round-robin, two requests 50 us apart. Request 0
  // runs on chip 0 and hedges onto chip 1 at 90 us; its primary wins at
  // ~103 us, leaving the hedge dead in service on chip 1 with request 1
  // queued behind it. Chip 1 crashes at 110 us and recovers at 115 us.
  // Request 1 then starts at once on chip 1 and beats its own hedge
  // (dispatched to chip 0 at 140 us). Re-running the dead hedge first
  // would delay it past that hedge.
  FleetConfig c;
  c.profile = workload::WorkloadProfile::web_search();
  c.servers = 2;
  c.cluster.hierarchy.cores = 1;
  c.warm_instructions = 20'000;
  c.policy = BalancePolicy::kRoundRobin;
  c.seed = 5;
  TenantSpec& t = c.tenants[0];
  t.user_instructions_per_request = 40'000;
  t.arrival.kind = ArrivalKind::kDeterministic;
  t.arrival.rate = 20'000.0;
  t.requests = 2;
  t.warmup_requests = 0;
  c.resilience.hedging = true;
  c.resilience.hedge_multiplier = 1.0;
  c.resilience.hedge_min_delay = microseconds(40.0);
  c.resilience.hedge_warmup = 1'000'000;
  c.faults.events = {{110e-6, 1, fault::FaultKind::kCrash},
                     {115e-6, 1, fault::FaultKind::kRecover}};
  const FleetResult r = FleetRunner{c}.run({.threads = 1});
  EXPECT_EQ(r.completed_all, 2u);
  EXPECT_EQ(r.hedged, 2u);
  EXPECT_EQ(r.hedge_wins, 0u);
  EXPECT_EQ(r.wasted_completions, 1u);  // the crashed hedge loser
  expect_tiling(r);
}

TEST(Resilience, DegradationFrequencyCapSlowsTheFleet) {
  auto cfg = one_chip(10'000.0);
  const FleetResult healthy = FleetRunner{cfg}.run({.threads = 1});
  // Deep whole-run cap (0.15 of nominal -> 0.3 GHz). The slowdown is
  // sub-linear in frequency — web search is memory-bound, which is the
  // paper's NTC argument — so the latency ratio is well under 1/0.15.
  cfg.faults.events = {{1e-6, 0, fault::FaultKind::kDegrade, 0.15, 0}};
  const FleetResult degraded = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_FALSE(degraded.truncated);
  EXPECT_EQ(degraded.offered, degraded.completed_all);
  EXPECT_GT(degraded.mean_latency.value(), healthy.mean_latency.value() * 1.5);
  EXPECT_GT(degraded.p99.value(), healthy.p99.value() * 1.3);
  expect_tiling(degraded);
}

TEST(Resilience, GuardbandChargesEnergyAndRecoversToThePin) {
  Scenario s = Scenario::by_name("ntc-guardband-web");
  Scenario healthy = s;
  healthy.faults = fault::FaultConfig{};
  const FleetResult faulted = run_scenario(s);
  const FleetResult clean = run_scenario(healthy);
  EXPECT_FALSE(faulted.truncated);
  EXPECT_GT(faulted.guardband_epochs, 0);
  EXPECT_EQ(clean.guardband_epochs, 0);
  // Bound: hold + ceil(margin/step) epochs per error event.
  const int bound = ctrl::kGuardbandHoldEpochs + 4;  // ceil(0.12/0.03)
  EXPECT_LE(faulted.guardband_epochs, 2 * bound);  // one error event per chip
  EXPECT_GT(faulted.energy.value(), clean.energy.value());
  // The margin has fully relaxed by the end of the run on every chip.
  ASSERT_FALSE(faulted.epochs.empty());
  for (auto it = faulted.epochs.rbegin();
       it != faulted.epochs.rend() && it->epoch == faulted.epochs.back().epoch; ++it) {
    EXPECT_DOUBLE_EQ(it->margin, 0.0);
  }
  expect_tiling(faulted);
}

TEST(Resilience, FaultedRunsAreDeterministicAcrossThreadCounts) {
  Scenario s = Scenario::by_name("diurnal-chipfail");
  s.tenants[0].requests = 300;  // span still covers the scripted crash window
  s.tenants[0].warmup_requests = 20;
  std::vector<Scenario> batch{s, s};
  const auto one = run_scenarios(batch, 1);
  const auto four = run_scenarios(batch, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].offered, 320u);
    EXPECT_GT(one[i].faults_injected, 0u);
    EXPECT_TRUE(one[i] == four[i]) << "batch entry " << i;
  }
}

// ---- Satellite: randomized accounting property test ----
//
// offered == completed_all + shed + timed_out + in_flight must tile at
// the fleet level and per tenant for *any* combination of load, policy,
// admission, faults and resilience — the conservation law of the serving
// layer. The generator is seeded, so the "random" sample is stable.
TEST(ResilienceProperty, AccountingTilesAcrossRandomizedScenarios) {
  Xoshiro256StarStar rng{derive_seed(0xACC7, 0)};
  for (int trial = 0; trial < 14; ++trial) {
    FleetConfig cfg;
    cfg.profile = workload::WorkloadProfile::web_search();
    cfg.frequency = ghz(2.0);
    cfg.servers = 1 + static_cast<int>(rng() % 3);
    TenantSpec& base = cfg.tenants[0];
    base.user_instructions_per_request = 3'000;
    base.arrival = poisson(8'000.0 + 5'000.0 * static_cast<double>(rng() % 8));
    base.requests = 60 + rng() % 60;
    base.warmup_requests = 8;
    cfg.warm_instructions = 60'000;
    cfg.seed = rng();
    cfg.policy = rng() % 2 == 0 ? BalancePolicy::kLeastLoaded
                                     : BalancePolicy::kRoundRobin;
    if (rng() % 2 == 0) {
      cfg.admission.enabled = true;
      cfg.admission.max_outstanding_per_core = 2.0;
    }
    // Fault schedule: none / scripted crash(+maybe recover) / stochastic.
    switch (rng() % 3) {
      case 1: {
        const int chip = static_cast<int>(rng() % cfg.servers);
        const double at = 0.3e-3 + 1e-4 * static_cast<double>(rng() % 10);
        cfg.faults.events.push_back({at, chip, fault::FaultKind::kCrash});
        if (rng() % 2 == 0) {
          cfg.faults.events.push_back({at + 0.8e-3, chip, fault::FaultKind::kRecover});
        }
        break;
      }
      case 2:
        cfg.faults.mtbf.enabled = true;
        cfg.faults.mtbf.mttf = Second{2.0e-3};
        cfg.faults.mtbf.mttr = Second{0.4e-3};
        cfg.faults.mtbf.horizon = Second{20e-3};
        break;
      default: break;
    }
    // Half the fleets carve their chips into two correlated failure
    // domains and take a rack-scale hit: a scripted domain outage or the
    // per-domain renewal stream, on top of whatever per-chip schedule the
    // switch above picked.
    if (cfg.servers >= 2 && rng() % 2 == 0) {
      fault::FaultDomain head, tail;
      head.name = "rack0";
      head.members = {0};
      tail.name = "rack1";
      for (int c = 1; c < cfg.servers; ++c) tail.members.push_back(c);
      cfg.faults.domains = {head, tail};
      if (rng() % 2 == 0) {
        fault::FaultEvent outage;
        outage.at_s = 0.3e-3 + 1e-4 * static_cast<double>(rng() % 10);
        outage.kind = fault::FaultKind::kDomainOutage;
        outage.domain = static_cast<int>(rng() % 2);
        outage.duration_s = rng() % 2 == 0 ? 0.6e-3 : 0.0;
        cfg.faults.events.push_back(outage);
      } else {
        cfg.faults.domain_mtbf.enabled = true;
        cfg.faults.domain_mtbf.mttf = Second{3.0e-3};
        cfg.faults.domain_mtbf.mttr = Second{0.5e-3};
        cfg.faults.domain_mtbf.horizon = Second{20e-3};
      }
    }
    // Resilience posture: none / failover / failover+timeout+hedging.
    switch (rng() % 3) {
      case 1: cfg.resilience.failover = true; break;
      case 2:
        cfg.resilience.failover = true;
        cfg.resilience.timeout = Second{150e-6};
        cfg.resilience.hedging = true;
        cfg.resilience.hedge_min_delay = Second{20e-6};
        cfg.resilience.hedge_warmup = 1'000'000;
        break;
      default: break;
    }
    // Brownout posture: none / full ladder / ladder + circuit breakers.
    // The ladder sheds by priority and the breakers fence chips off, so
    // both must keep the ledger tiling through every fault combination.
    // Both act at the epoch barrier, so they need a governed fleet.
    switch (rng() % 3) {
      case 1:
        cfg.governor.kind = ctrl::GovernorKind::kFixedMax;
        cfg.brownout.enabled = true;
        break;
      case 2:
        cfg.governor.kind = ctrl::GovernorKind::kFixedMax;
        cfg.brownout.enabled = true;
        cfg.breaker.enabled = true;
        break;
      default: break;
    }
    // Sometimes split the load across two tenants to exercise the
    // per-tenant tiling.
    if (rng() % 2 == 0) {
      TenantSpec a = base, b = base;
      a.name = "a";
      a.requests = base.requests / 2;
      a.warmup_requests = 4;
      b.name = "b";
      b.arrival.rate *= 0.5;
      b.requests = base.requests / 2;
      b.warmup_requests = 4;
      cfg.tenants = {a, b};
    }
    cfg.max_cycles = 80'000'000;  // unrecovered crashes truncate quickly

    const FleetResult r = FleetRunner{cfg}.run({.threads = 1});
    SCOPED_TRACE("trial " + std::to_string(trial) + " servers " +
                 std::to_string(cfg.servers) + " seed " + std::to_string(cfg.seed));
    expect_tiling(r);
    if (!r.truncated) EXPECT_EQ(r.in_flight, 0u);
  }
}

TEST(Resilience, ValidationRejectsBadConfigs) {
  {
    auto cfg = small_config();
    cfg.resilience.timeout = Second{-1.0};
    EXPECT_THROW(ClusterFleet{cfg}, ModelError);
  }
  {
    auto cfg = small_config();
    cfg.resilience.hedging = true;
    cfg.resilience.hedge_multiplier = 0.0;
    EXPECT_THROW(ClusterFleet{cfg}, ModelError);
  }
  {
    auto cfg = small_config();  // 2 servers; event names chip 5
    cfg.faults.events = {{1e-3, 5, fault::FaultKind::kCrash}};
    EXPECT_THROW(ClusterFleet{cfg}, ModelError);
  }
}

}  // namespace
}  // namespace ntserv::dc
