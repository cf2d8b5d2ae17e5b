#include <gtest/gtest.h>

#include "pm/power_manager.hpp"
#include "tech/technology.hpp"

namespace ntserv::pm {
namespace {

/// Sub-linear throughput curve: UIPS = 30G * (f/2GHz)^0.8.
UipsCurve curve() {
  UipsCurve c;
  for (double g = 0.2; g <= 2.01; g += 0.2) {
    c.push_back({ghz(g), 30e9 * std::pow(g / 2.0, 0.8)});
  }
  return c;
}

PowerManager make_pm() {
  return PowerManager{
      power::ServerPowerModel{tech::TechnologyModel{tech::TechnologyParams::fdsoi28()},
                              power::ChipConfig{}},
      curve()};
}

TEST(LoadTrace, DiurnalShape) {
  const auto t = LoadTrace::diurnal(24, 0.1, 0.9);
  ASSERT_EQ(t.demand.size(), 24u);
  EXPECT_NEAR(t.demand.front(), 0.1, 1e-9);  // trough at phase 0
  EXPECT_NEAR(t.demand[12], 0.9, 1e-9);      // peak at midday
  t.validate();
}

TEST(LoadTrace, Validation) {
  LoadTrace t;
  EXPECT_THROW(t.validate(), ModelError);
  t.demand = {0.5, 1.5};
  EXPECT_THROW(t.validate(), ModelError);
}

TEST(PowerManager, CurveInterpolation) {
  const auto pm = make_pm();
  EXPECT_DOUBLE_EQ(pm.peak_uips(), 30e9);
  EXPECT_NEAR(pm.uips_at(ghz(2.0)), 30e9, 1e-3);
  EXPECT_LT(pm.uips_at(ghz(1.0)), 30e9);
  EXPECT_GT(pm.uips_at(ghz(1.0)), 15e9);  // sub-linear curve
  // Clamping.
  EXPECT_DOUBLE_EQ(pm.uips_at(mhz(50)), pm.uips_at(mhz(200)));
}

TEST(PowerManager, FrequencyForUipsInverts) {
  const auto pm = make_pm();
  const double target = pm.uips_at(ghz(1.1));
  const auto f = pm.frequency_for_uips(target);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(in_ghz(*f), 1.1, 0.02);
  EXPECT_FALSE(pm.frequency_for_uips(pm.peak_uips() * 1.01).has_value());
}

TEST(PowerManager, EfficiencyOptimumInInterior) {
  const auto pm = make_pm();
  const double f = in_ghz(pm.efficiency_optimal_frequency());
  EXPECT_GT(f, 0.3);
  EXPECT_LT(f, 1.9);
}

TEST(PowerManager, SleepPowerFarBelowActive) {
  const auto pm = make_pm();
  EXPECT_LT(pm.sleep_power().value(), pm.active_power(ghz(2.0)).value() * 0.7);
  EXPECT_GT(pm.sleep_power().value(), 10.0);  // uncore + DRAM floor remains
}

class PolicyTest : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyTest, MeetsDemandOnFeasibleTrace) {
  const auto pm = make_pm();
  const auto trace = LoadTrace::diurnal(48, 0.1, 0.9);
  const auto r = pm.run(trace, GetParam());
  EXPECT_EQ(r.violations, 0);
  EXPECT_EQ(r.decisions.size(), trace.demand.size());
  EXPECT_GT(r.energy.value(), 0.0);
}

TEST_P(PolicyTest, NoPolicyBeatsItsOwnPeakPower) {
  const auto pm = make_pm();
  const auto trace = LoadTrace::diurnal(24, 0.2, 0.8);
  const auto r = pm.run(trace, GetParam());
  EXPECT_LE(r.avg_power.value(), pm.active_power(ghz(2.0)).value() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyTest,
                         ::testing::Values(Policy::kRaceToIdle, Policy::kDvfsFollow,
                                           Policy::kNtcWide, Policy::kFixedMax),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

TEST(PowerManager, EveryManagedPolicyBeatsFixedMax) {
  const auto pm = make_pm();
  const auto trace = LoadTrace::diurnal(48, 0.1, 0.7);
  const double fixed = pm.run(trace, Policy::kFixedMax).energy.value();
  EXPECT_LT(pm.run(trace, Policy::kRaceToIdle).energy.value(), fixed);
  EXPECT_LT(pm.run(trace, Policy::kDvfsFollow).energy.value(), fixed);
  EXPECT_LT(pm.run(trace, Policy::kNtcWide).energy.value(), fixed);
}

TEST(PowerManager, NtcWideWinsAtLowUtilization) {
  // The paper's thesis expressed as a policy: pinning near the efficiency
  // optimum with RBB sleep beats both race-to-idle and plain DVFS when the
  // server idles a lot.
  const auto pm = make_pm();
  const auto trace = LoadTrace::diurnal(48, 0.05, 0.45);
  const double ntc = pm.run(trace, Policy::kNtcWide).energy.value();
  const double race = pm.run(trace, Policy::kRaceToIdle).energy.value();
  EXPECT_LT(ntc, race);
}

TEST(PowerManager, NtcWideBoostsAbovePinWhenNeeded) {
  const auto pm = make_pm();
  LoadTrace spike;
  spike.demand = {0.2, 1.0, 0.2};
  const auto r = pm.run(spike, Policy::kNtcWide);
  EXPECT_EQ(r.violations, 0);
  const Hertz f_opt = pm.efficiency_optimal_frequency();
  EXPECT_GT(r.decisions[1].frequency.value(), f_opt.value());
  EXPECT_NEAR(r.decisions[0].frequency.value(), f_opt.value(), 1.0);
}

TEST(PowerManager, DvfsFollowTracksDemand) {
  const auto pm = make_pm();
  LoadTrace ramp;
  ramp.demand = {0.1, 0.4, 0.7, 1.0};
  const auto r = pm.run(ramp, Policy::kDvfsFollow);
  for (std::size_t i = 1; i < r.decisions.size(); ++i) {
    EXPECT_GE(r.decisions[i].frequency.value(), r.decisions[i - 1].frequency.value());
  }
  EXPECT_NEAR(in_ghz(r.decisions.back().frequency), 2.0, 0.01);
}

TEST(PowerManager, RejectsBadCurve) {
  const auto platform =
      power::ServerPowerModel{tech::TechnologyModel{tech::TechnologyParams::fdsoi28()},
                              power::ChipConfig{}};
  UipsCurve tiny{{ghz(1.0), 1e9}};
  EXPECT_THROW((PowerManager{platform, tiny}), ModelError);
  UipsCurve decreasing{{ghz(1.0), 2e9}, {ghz(2.0), 1e9}};
  EXPECT_THROW((PowerManager{platform, decreasing}), ModelError);
}

}  // namespace
}  // namespace ntserv::pm
