#include <gtest/gtest.h>

#include "dc/fleet.hpp"
#include "dc/runner.hpp"
#include "workload/profile.hpp"

namespace ntserv::dc {
namespace {

ArrivalConfig poisson(double rate) {
  ArrivalConfig a;
  a.kind = ArrivalKind::kPoisson;
  a.rate = rate;
  return a;
}

/// Small, fast fleet shared by the behavioural tests: two chips, light
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

TEST(Fleet, CompletesEveryMeasuredRequest) {
  const FleetRunner runner{small_config()};
  const FleetResult r = runner.run();
  EXPECT_EQ(r.completed, 80u);
  EXPECT_EQ(r.admitted, 90u);
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.p99.value(), 0.0);
  EXPECT_LE(r.p50.value(), r.p95.value());
  EXPECT_LE(r.p95.value(), r.p99.value());
  EXPECT_GT(r.mean_latency.value(), 0.0);
  EXPECT_GE(r.mean_wait.value(), 0.0);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
  ASSERT_EQ(r.server_active_fraction.size(), 2u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.offered_rate, 0.0);
}

TEST(Fleet, DefaultConfigRunsOneDefaultTenant) {
  // The traffic lives only in the tenant table; a default config carries
  // one default tenant, reported under its name.
  ASSERT_EQ(FleetConfig{}.tenants.size(), 1u);
  const FleetResult r = FleetRunner{small_config()}.run();
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_EQ(r.tenants[0].name, "default");
  EXPECT_EQ(r.tenants[0].completed, r.completed);
}

TEST(Fleet, RunsAreDeterministic) {
  const FleetResult a = FleetRunner{small_config()}.run({.shards = 1, .threads = 1});
  const FleetResult b = FleetRunner{small_config()}.run({.shards = 1, .threads = 1});
  EXPECT_TRUE(a == b);
}

TEST(Fleet, SeedChangesTheMeasurement) {
  auto reseeded = small_config();
  reseeded.seed = 4;
  EXPECT_NE(FleetRunner{small_config()}.run({.shards = 1, .threads = 1}).p99.value(),
            FleetRunner{reseeded}.run({.shards = 1, .threads = 1}).p99.value());
}

TEST(Fleet, PowerAwarePacksAndRoundRobinSpreads) {
  auto cfg = small_config();
  cfg.servers = 3;
  cfg.tenants[0].arrival = poisson(8'000.0);  // light: one server can absorb it

  cfg.policy = BalancePolicy::kPowerAware;
  const FleetResult packed = FleetRunner{cfg}.run({.shards = 1, .threads = 1});
  // Packing leaves the last server cold so it could sleep.
  EXPECT_GT(packed.server_active_fraction[0], 0.0);
  EXPECT_EQ(packed.server_active_fraction[2], 0.0);

  cfg.policy = BalancePolicy::kRoundRobin;
  const FleetResult spread = FleetRunner{cfg}.run({.shards = 1, .threads = 1});
  for (double a : spread.server_active_fraction) EXPECT_GT(a, 0.0);
}

TEST(Fleet, SaturatedFleetTruncatesAtTheCycleCap) {
  auto cfg = small_config();
  cfg.tenants[0].arrival = poisson(5e6);  // far beyond service capacity
  cfg.tenants[0].requests = 4'000;
  cfg.max_cycles = 200'000;
  const FleetResult r = FleetRunner{cfg}.run({.shards = 1, .threads = 1});
  EXPECT_TRUE(r.truncated);
  EXPECT_LT(r.completed, 4'000u);
  EXPECT_LE(r.span_cycles, 200'000u + cfg.quantum);
}

TEST(Fleet, QueueingInflatesTheTail) {
  auto cfg = small_config();
  cfg.tenants[0].requests = 120;
  cfg.tenants[0].arrival = poisson(5'000.0);
  const FleetResult light = FleetRunner{cfg}.run({.shards = 1, .threads = 1});
  cfg.tenants[0].arrival = poisson(2'000'000.0);  // ~70% of the fleet's service capacity
  const FleetResult heavy = FleetRunner{cfg}.run({.shards = 1, .threads = 1});
  EXPECT_GT(heavy.mean_wait.value(), light.mean_wait.value());
  EXPECT_GT(heavy.p99.value(), light.p99.value());
}

TEST(Fleet, EnergyAccountsIdleServersAtSleepPower) {
  auto cfg = small_config();
  cfg.servers = 3;
  cfg.tenants[0].arrival = poisson(8'000.0);
  cfg.policy = BalancePolicy::kPowerAware;
  const FleetResult r = FleetRunner{cfg}.run({.shards = 1, .threads = 1});

  const power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  const pm::UipsCurve curve{{ghz(0.5), 1e10}, {ghz(2.0), 3e10}};
  const pm::PowerManager manager{platform, curve};

  const Joule e = fleet_energy(r, manager, ghz(2.0));
  EXPECT_GT(e.value(), 0.0);
  // Packing must cost less than a hypothetical all-active fleet.
  const Second span{static_cast<double>(r.span_cycles) / 2e9};
  FleetResult all_active = r;
  for (auto& a : all_active.server_active_fraction) a = 1.0;
  EXPECT_LT(e.value(), fleet_energy(all_active, manager, ghz(2.0)).value());
  // And at least as much as a fleet asleep the whole span.
  EXPECT_GE(e.value(), (manager.sleep_power() * span).value() * 3 * 0.99);
}

TEST(Fleet, ValidationRejectsBadConfigs) {
  auto cfg = small_config();
  cfg.servers = 0;
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg = small_config();
  cfg.tenants.clear();  // no traffic description at all
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg = small_config();
  cfg.tenants[0].requests = 0;
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg = small_config();
  cfg.tenants[0].user_instructions_per_request = 0;
  EXPECT_THROW(cfg.validate(), ModelError);
}

}  // namespace
}  // namespace ntserv::dc
