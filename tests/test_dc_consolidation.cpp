#include <gtest/gtest.h>

#include "dc/scenario.hpp"
#include "dse/dse.hpp"

namespace ntserv::dc {
namespace {

/// The registry antiphase pair trimmed for test turnaround.
Scenario trimmed_antiphase() {
  Scenario s = Scenario::by_name("consolidated-antiphase-search");
  s.warm_instructions = 60'000;
  for (auto& t : s.tenants) {
    t.requests = 150;
    t.warmup_requests = 15;
  }
  return s;
}

TEST(Consolidation, DedicatedSplitExtractsOneTenant) {
  const Scenario s = Scenario::by_name("consolidated-antiphase-search");
  ASSERT_EQ(s.tenants.size(), 2u);
  const Scenario day = s.dedicated(0);
  ASSERT_EQ(day.tenants.size(), 1u);
  EXPECT_EQ(day.tenants[0].name, "day-peak");
  EXPECT_EQ(day.servers, s.servers);
  EXPECT_EQ(day.clusters_per_chip, s.clusters_per_chip);
  EXPECT_NO_THROW(day.validate());
  EXPECT_THROW((void)s.dedicated(2), ModelError);
  // A single-tenant table has nothing to split.
  EXPECT_THROW((void)Scenario::by_name("websearch-poisson-light").dedicated(0),
               ModelError);
}

TEST(Consolidation, SweepIsThreadCountInvariant) {
  const Scenario s = trimmed_antiphase();
  const auto one = dse::sweep_consolidation(s, {1}, 1);
  const auto four = dse::sweep_consolidation(s, {1}, 4);
  ASSERT_EQ(one.points.size(), 1u);
  ASSERT_EQ(four.points.size(), 1u);
  const auto& a = one.points[0];
  const auto& b = four.points[0];
  ASSERT_EQ(a.consolidated.tenants.size(), 2u);
  EXPECT_TRUE(a.consolidated == b.consolidated);
  EXPECT_TRUE(a.dedicated == b.dedicated);
}

TEST(Consolidation, AntiphaseTenantsShareOneChipAtEqualBounds) {
  // The acceptance shape at test scale: one shared chip carries both
  // antiphase tenants inside their p99 bounds while the dedicated splits
  // need one chip each — consolidation halves the fleet.
  const Scenario s = trimmed_antiphase();
  const auto sweep = dse::sweep_consolidation(s, {1});
  const auto& point = sweep.points.front();
  EXPECT_TRUE(sweep.meets(point.consolidated, 0));
  EXPECT_TRUE(sweep.meets(point.consolidated, 1));
  EXPECT_TRUE(sweep.meets(point.dedicated[0], 0));
  EXPECT_TRUE(sweep.meets(point.dedicated[1], 1));
  EXPECT_EQ(sweep.min_consolidated_chips(), 1);
  EXPECT_EQ(sweep.min_dedicated_chips(0), 1);
  EXPECT_EQ(sweep.min_dedicated_chips(1), 1);
  // Fewer chips and less energy than the dedicated fleets combined.
  EXPECT_LT(point.consolidated.energy.value(),
            point.dedicated[0].energy.value() + point.dedicated[1].energy.value());
}

TEST(Consolidation, MeetsRejectsBrokenRuns) {
  dse::ConsolidationSweep sweep;
  sweep.tenant_names = {"t0"};
  sweep.tenant_bounds = {microseconds(90.0)};
  FleetResult ok;
  ok.tenants.resize(1);
  ok.tenants[0].name = "t0";
  ok.tenants[0].completed = 100;
  ok.tenants[0].p99 = microseconds(50.0);
  EXPECT_TRUE(sweep.meets(ok, 0));
  FleetResult truncated = ok;
  truncated.truncated = true;
  EXPECT_FALSE(sweep.meets(truncated, 0));
  FleetResult shed = ok;
  shed.tenants[0].shed = 1;
  EXPECT_FALSE(sweep.meets(shed, 0));
  FleetResult late = ok;
  late.tenants[0].p99 = microseconds(120.0);
  EXPECT_FALSE(sweep.meets(late, 0));
  // An unbounded (batch) tenant only needs completions.
  sweep.tenant_bounds[0] = Second{0.0};
  EXPECT_TRUE(sweep.meets(late, 0));
  FleetResult empty = ok;
  empty.tenants[0].completed = 0;
  EXPECT_FALSE(sweep.meets(empty, 0));
}

}  // namespace
}  // namespace ntserv::dc
