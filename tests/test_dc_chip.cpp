#include <gtest/gtest.h>

#include "dc/fleet.hpp"
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

/// Small, fast `servers` x `clusters_per_chip` fleet shared by the
/// behavioural tests: Poisson traffic in the default tenant.
FleetConfig chip_config(int servers, int clusters_per_chip, double rate = 200'000.0) {
  FleetConfig cfg;
  cfg.profile = workload::WorkloadProfile::web_search();
  cfg.frequency = ghz(2.0);
  cfg.servers = servers;
  cfg.clusters_per_chip = clusters_per_chip;
  cfg.warm_instructions = 60'000;
  cfg.seed = 5;
  TenantSpec& t = cfg.tenants[0];
  t.user_instructions_per_request = 3'000;
  t.arrival = poisson(rate);
  t.requests = 120;
  t.warmup_requests = 12;
  return cfg;
}

/// Trimmed two-tenant consolidated scenario (fast warm) used by the
/// determinism and golden checks.
Scenario tiny_consolidated() {
  Scenario s;
  s.name = "tiny-consolidated";
  s.profile = workload::WorkloadProfile::web_search();
  s.servers = 2;
  s.clusters_per_chip = 2;
  s.policy = BalancePolicy::kGovernorAware;
  s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
  s.governor.epoch_quanta = 512;
  s.warm_instructions = 60'000;
  s.seed = 31;
  TenantSpec critical;
  critical.name = "critical";
  critical.arrival.kind = ArrivalKind::kDiurnal;
  critical.arrival.rate = 400'000.0;
  critical.arrival.diurnal_trough = 0.2;
  critical.arrival.diurnal_period = Second{4e-4};
  critical.user_instructions_per_request = 3'000;
  critical.qos_p99_limit = microseconds(80.0);
  critical.requests = 120;
  critical.warmup_requests = 12;
  TenantSpec batch;
  batch.name = "batch";
  batch.arrival.kind = ArrivalKind::kPoisson;
  batch.arrival.rate = 150'000.0;
  batch.user_instructions_per_request = 3'000;
  batch.budget.kind = ctrl::BudgetKind::kLognormal;
  batch.budget.sigma = 0.6;
  batch.latency_critical = false;
  batch.requests = 80;
  batch.warmup_requests = 8;
  s.tenants = {critical, batch};
  return s;
}

TEST(Chip, MultiClusterChipUsesAllItsClusters) {
  // A 2-cluster chip exposes 8 core slots behind one queue: under enough
  // load both clusters serve, and the fleet completes every request.
  const auto cfg = chip_config(1, 2, 400'000.0);
  EXPECT_EQ(ClusterFleet{cfg}.cores_per_server(), 2 * cfg.cluster.hierarchy.cores);
  const FleetResult r = FleetRunner{cfg}.run({.threads = 1});
  EXPECT_EQ(r.completed, cfg.tenants[0].requests);
  EXPECT_FALSE(r.truncated);
  ASSERT_EQ(r.server_active_fraction.size(), 1u);
  EXPECT_GT(r.server_active_fraction[0], 0.0);
  // With 8 cores on the chip and bursts of outstanding work, the span
  // must beat what a single 4-core cluster could deliver: utilization is
  // measured against all 8, and the queue drains through both clusters.
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
}

TEST(Chip, FlatAndChipGroupingsExposeTheSameCapacity) {
  // 2 chips x 1 cluster and 1 chip x 2 clusters hold the same 8 cores;
  // both shapes must complete the same offered load untruncated (the
  // dispatch granularity differs — chips share one queue — so tails are
  // close but not identical).
  const FleetResult rf = FleetRunner{chip_config(2, 1)}.run({.threads = 1});
  const FleetResult rc = FleetRunner{chip_config(1, 2)}.run({.threads = 1});
  EXPECT_EQ(rf.completed, rc.completed);
  EXPECT_FALSE(rf.truncated);
  EXPECT_FALSE(rc.truncated);
  EXPECT_GT(rc.p99.value(), 0.0);
  // Same total service capacity: the spans agree within dispatch noise.
  EXPECT_NEAR(rc.span_seconds.value(), rf.span_seconds.value(),
              0.25 * rf.span_seconds.value());
}

TEST(Chip, RunsAreDeterministicAcrossThreadCountsAndPolicies) {
  // The satellite determinism requirement: chip-level dispatch must be
  // bit-identical for any NTSERV_THREADS under every balance policy,
  // including the governor-aware one (its peeks read only fleet state).
  const std::vector<BalancePolicy> policies{
      BalancePolicy::kRoundRobin, BalancePolicy::kLeastLoaded,
      BalancePolicy::kPowerAware, BalancePolicy::kGovernorAware};
  std::vector<Scenario> batch;
  for (const auto p : policies) {
    Scenario s = tiny_consolidated();
    s.policy = p;
    batch.push_back(s);
  }
  const auto serial = run_scenarios(batch, 1);
  const auto parallel = run_scenarios(batch, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "policy " << to_string(policies[i]);
  }
}

TEST(Chip, TenantAccountingIsConsistent) {
  const auto r = run_scenario(tiny_consolidated());
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_FALSE(r.truncated);
  std::uint64_t completed = 0, offered = 0, shed = 0;
  double share = 0.0, energy = 0.0;
  for (const auto& t : r.tenants) {
    completed += t.completed;
    offered += t.offered;
    shed += t.shed;
    share += t.busy_share;
    energy += t.energy.value();
    EXPECT_LE(t.p50.value(), t.p95.value());
    EXPECT_LE(t.p95.value(), t.p99.value());
  }
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(shed, r.shed);
  // Busy shares partition occupied core time, and the energy attribution
  // redistributes exactly the governed fleet energy.
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_NEAR(energy, r.energy.value(), 1e-9 + r.energy.value() * 1e-9);
}

TEST(Chip, PerTenantPercentileGoldens) {
  // Golden per-tenant percentiles for the trimmed consolidated scenario:
  // the numbers are a deterministic function of (config, seed) and must
  // not drift silently (dispatch-order or accounting regressions move
  // them far more than the tolerance).
  const auto r = run_scenario(tiny_consolidated());
  ASSERT_EQ(r.tenants.size(), 2u);
  const auto& critical = r.tenants[0];
  const auto& batch = r.tenants[1];
  EXPECT_EQ(critical.completed, 120u);
  EXPECT_EQ(batch.completed, 80u);
  constexpr double kCriticalP50 = 1.0103013421059424e-05;
  constexpr double kCriticalP99 = 1.5398710601159963e-05;
  constexpr double kBatchP50 = 8.4582827667097115e-06;
  constexpr double kBatchP99 = 3.7292871589441701e-05;
  const double rel = 1e-6;  // identical math everywhere; allow libm noise
  EXPECT_NEAR(critical.p50.value(), kCriticalP50, kCriticalP50 * rel);
  EXPECT_NEAR(critical.p99.value(), kCriticalP99, kCriticalP99 * rel);
  EXPECT_NEAR(batch.p50.value(), kBatchP50, kBatchP50 * rel);
  EXPECT_NEAR(batch.p99.value(), kBatchP99, kBatchP99 * rel);
}

TEST(Chip, GovernorAwareSteersUnderForcedDescent) {
  // Force per-chip frequency descents: ondemand chips climb during MMPP
  // bursts and descend between them. The governor-aware balancer must
  // (a) actually steer latency-critical work off descending chips and
  // (b) end no worse than least-loaded on non-transition QoS violations.
  Scenario s;
  s.name = "forced-descent";
  s.profile = workload::WorkloadProfile::web_search();
  s.servers = 2;
  s.clusters_per_chip = 1;
  s.governor.kind = ctrl::GovernorKind::kOndemandDvfs;
  s.governor.epoch_quanta = 512;
  s.governor.qos_p99_limit = microseconds(80.0);
  TenantSpec& t = s.tenants[0];
  t.arrival.kind = ArrivalKind::kMmpp;
  t.arrival.rate = 150'000.0;
  t.arrival.burst_rate_multiplier = 4.0;
  t.arrival.burst_fraction = 0.15;
  t.arrival.burst_dwell = Second{1e-4};
  t.user_instructions_per_request = 3'000;
  t.requests = 250;
  t.warmup_requests = 25;
  s.warm_instructions = 60'000;
  s.seed = 33;

  s.policy = BalancePolicy::kLeastLoaded;
  const auto ll = run_scenario(s);
  s.policy = BalancePolicy::kGovernorAware;
  const auto ga = run_scenario(s);

  EXPECT_FALSE(ll.truncated);
  EXPECT_FALSE(ga.truncated);
  EXPECT_GT(ll.transitions, 0) << "scenario must actually force descents";
  EXPECT_EQ(ll.steered, 0u);
  EXPECT_GT(ga.steered, 0u);
  EXPECT_LE(ga.qos_violation_epochs, ll.qos_violation_epochs);
}

}  // namespace
}  // namespace ntserv::dc
