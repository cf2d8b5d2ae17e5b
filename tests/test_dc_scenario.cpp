#include <gtest/gtest.h>

#include <set>

#include "dc/scenario.hpp"
#include "dse/dse.hpp"
#include "power/server_power.hpp"
#include "sim/server_sim.hpp"

namespace ntserv::dc {
namespace {

TEST(Scenario, RegistryEntriesAreUniqueAndExpandable) {
  const auto all = Scenario::registry();
  ASSERT_GE(all.size(), 6u);
  std::set<std::string> names;
  std::set<ArrivalKind> kinds;
  std::set<BalancePolicy> policies;
  for (const auto& s : all) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario " << s.name;
    for (const auto& t : s.tenants) kinds.insert(t.arrival.kind);
    policies.insert(s.policy);
    // Every entry must expand into a valid runnable configuration.
    EXPECT_NO_THROW(s.validate()) << s.name;
  }
  // The catalog exercises every arrival family and every policy.
  EXPECT_EQ(kinds.size(), 5u);
  EXPECT_EQ(policies.size(), 4u);
}

TEST(Scenario, LookupByName) {
  const auto s = Scenario::by_name("websearch-poisson-light");
  EXPECT_EQ(s.profile.name, "Web Search");
  EXPECT_THROW((void)Scenario::by_name("nonexistent"), ModelError);
}

TEST(Scenario, RateForLoadScalesLinearly) {
  const double r1 = rate_for_load(0.5, 2, 4, 8'000);
  EXPECT_NEAR(rate_for_load(1.0, 2, 4, 8'000), 2.0 * r1, 1e-9);
  EXPECT_NEAR(rate_for_load(0.5, 4, 4, 8'000), 2.0 * r1, 1e-9);
  EXPECT_NEAR(rate_for_load(0.5, 2, 4, 16'000), 0.5 * r1, 1e-9);
  EXPECT_THROW((void)rate_for_load(0.0, 2, 4, 8'000), ModelError);
}

/// Fast scenario used by the determinism checks.
Scenario tiny_scenario() {
  Scenario s;
  s.name = "tiny";
  s.profile = workload::WorkloadProfile::web_search();
  s.servers = 2;
  TenantSpec& t = s.tenants[0];
  t.arrival.kind = ArrivalKind::kPoisson;
  t.arrival.rate = 20'000.0;
  t.user_instructions_per_request = 3'000;
  t.requests = 60;
  t.warmup_requests = 8;
  s.seed = 21;
  return s;
}

TEST(Scenario, RunScenariosIsThreadCountInvariant) {
  // The satellite determinism requirement: identical results for
  // NTSERV_THREADS=1 and 4 (here passed explicitly; the env default goes
  // through the same code path).
  const std::vector<Scenario> batch{tiny_scenario(), [] {
                                      auto s = tiny_scenario();
                                      s.seed = 22;
                                      s.policy = BalancePolicy::kRoundRobin;
                                      return s;
                                    }()};
  const auto serial = run_scenarios(batch, 1);
  const auto parallel = run_scenarios(batch, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "batch entry " << i;
  }
}

TEST(Scenario, MeasuredQosSweepIsThreadCountInvariant) {
  const auto target = qos::QosTarget::web_search();
  const std::vector<Hertz> grid{ghz(1.0), ghz(2.0)};
  const auto one = dse::sweep_measured_qos(tiny_scenario(), target, grid, 1);
  const auto four = dse::sweep_measured_qos(tiny_scenario(), target, grid, 4);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(one.points[i].p99.value(), four.points[i].p99.value());
    EXPECT_DOUBLE_EQ(one.points[i].normalized_p99, four.points[i].normalized_p99);
  }
  // Normalization anchors at the highest-frequency point: by construction
  // that point's normalized latency is baseline_p99 / qos_limit.
  const auto& base_point = one.points.back();
  EXPECT_NEAR(base_point.normalized_p99,
              target.baseline_p99.value() / target.qos_limit.value(), 1e-12);
}

TEST(Scenario, MeasuredTailMatchesAnalyticScalingWhenContentionFree) {
  // The acceptance cross-check: on a contention-free Poisson scenario the
  // measured p99 ratio must reproduce the analytic UIPS-scaling rule
  // within 10% (instructions per request are constant, paper Sec. V-A).
  Scenario s;
  s.name = "xcheck";
  s.profile = workload::WorkloadProfile::data_serving();
  s.servers = 2;
  TenantSpec& t = s.tenants[0];
  t.arrival.kind = ArrivalKind::kPoisson;
  t.arrival.rate = rate_for_load(0.025, 2, 4, 8'000);
  t.user_instructions_per_request = 8'000;
  t.requests = 300;
  t.warmup_requests = 40;
  s.seed = 11;

  const auto target = qos::QosTarget::data_serving();
  const std::vector<Hertz> grid{ghz(0.5), ghz(1.0), ghz(2.0)};
  const auto measured = dse::sweep_measured_qos(s, target, grid);

  const power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  sim::ServerSimConfig cfg;
  cfg.smarts.warm_instructions = 600'000;
  cfg.smarts.warmup = 30'000;
  cfg.smarts.measure = 60'000;
  cfg.smarts.min_samples = 6;
  cfg.smarts.max_samples = 12;
  const sim::ServerSimulator simulator{workload::WorkloadProfile::data_serving(),
                                       platform, cfg};
  const auto base = simulator.evaluate(ghz(2.0));
  for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
    const auto point = simulator.evaluate(grid[i]);
    const double analytic = qos::normalized_latency(target, point.uips, base.uips);
    const double ratio = measured.points[i].normalized_p99 / analytic;
    EXPECT_NEAR(ratio, 1.0, 0.10) << "f = " << in_ghz(grid[i]) << " GHz";
    EXPECT_LT(measured.points[i].utilization, 0.15) << "scenario must stay contention-free";
  }
}

}  // namespace
}  // namespace ntserv::dc
