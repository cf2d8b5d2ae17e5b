#include <gtest/gtest.h>

#include "../bench/bench_common.hpp"
#include "dse/dse.hpp"

namespace ntserv::dse {
namespace {

/// Hand-built sweep with analytically known behaviour: UIPS = k*f^0.8
/// (sub-linear), core power ~ f^3, fixed uncore and memory.
SweepResult synthetic_sweep() {
  SweepResult s;
  s.workload = "synthetic";
  for (double g = 0.2; g <= 2.01; g += 0.2) {
    sim::OperatingPointResult p;
    p.frequency = ghz(g);
    p.uips = 30e9 * std::pow(g / 2.0, 0.8);
    p.power.core_dynamic = watts(20.0 * g * g * g / 8.0);
    p.power.core_leakage = watts(0.05);
    p.power.llc = watts(18.0);
    p.power.interconnect = watts(0.22);
    p.power.io = watts(5.0);
    p.power.dram_background = watts(1.9);
    p.power.dram_dynamic = watts(2.0 * g / 2.0);
    p.eff_cores = p.uips / p.power.cores().value();
    p.eff_soc = p.uips / p.power.soc().value();
    p.eff_server = p.uips / p.power.server().value();
    s.points.push_back(p);
  }
  return s;
}

TEST(Dse, ScopeNames) {
  EXPECT_STREQ(to_string(Scope::kCores), "cores");
  EXPECT_STREQ(to_string(Scope::kSoc), "SoC");
  EXPECT_STREQ(to_string(Scope::kServer), "server");
}

TEST(Dse, CoresOptimumAtLowestFrequency) {
  const auto s = synthetic_sweep();
  EXPECT_EQ(s.optimal_index(Scope::kCores), 0u);
  EXPECT_NEAR(in_ghz(s.optimal_frequency(Scope::kCores)), 0.2, 1e-9);
}

TEST(Dse, SocOptimumInTheMiddle) {
  const auto s = synthetic_sweep();
  const double f = in_ghz(s.optimal_frequency(Scope::kSoc));
  EXPECT_GT(f, 0.5);
  EXPECT_LT(f, 2.0);
}

TEST(Dse, ServerOptimumAtOrRightOfSocOptimum) {
  const auto s = synthetic_sweep();
  EXPECT_GE(s.optimal_frequency(Scope::kServer).value(),
            s.optimal_frequency(Scope::kSoc).value() - 1.0);
}

TEST(Dse, BaselineUipsIsHighestFrequencyPoint) {
  const auto s = synthetic_sweep();
  EXPECT_DOUBLE_EQ(s.baseline_uips(), s.points.back().uips);
}

TEST(Dse, UipsSamplesMatchPoints) {
  const auto s = synthetic_sweep();
  const auto samples = s.uips_samples();
  ASSERT_EQ(samples.size(), s.points.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].uips, s.points[i].uips);
  }
}

TEST(Dse, ChooseOperatingPointRespectsFloor) {
  const auto s = synthetic_sweep();
  // Tight QoS: floor lands mid-sweep.
  qos::QosTarget tight{"t", milliseconds(100), milliseconds(55)};
  const auto choice = choose_operating_point(s, tight);
  EXPECT_GE(choice.chosen_frequency.value(), choice.qos_floor.value());
  EXPECT_LE(choice.normalized_p99, 1.0 + 1e-9);
  EXPECT_GT(choice.efficiency, 0.0);
}

TEST(Dse, ChooseOperatingPointPicksEfficiencyAboveFloor) {
  const auto s = synthetic_sweep();
  qos::QosTarget loose{"l", seconds(100), milliseconds(1)};
  const auto choice = choose_operating_point(s, loose);
  // Floor is the bottom of the sweep; chosen = server-scope optimum.
  EXPECT_NEAR(choice.chosen_frequency.value(),
              s.optimal_frequency(Scope::kServer).value(), 1.0);
}

TEST(Dse, EnergyProportionalityBounds) {
  const auto s = synthetic_sweep();
  for (Scope scope : {Scope::kCores, Scope::kSoc, Scope::kServer}) {
    const double ep = energy_proportionality(s, scope);
    EXPECT_GE(ep, 0.0);
    EXPECT_LE(ep, 1.2);
  }
  // Cores alone are nearly proportional (cubic power, sublinear UIPS);
  // the server with its constant uncore is much less so.
  EXPECT_GT(energy_proportionality(s, Scope::kCores),
            energy_proportionality(s, Scope::kServer) + 0.2);
}

TEST(Dse, ConsolidationHeadroomAboveOneWhenFloorBelowOptimum) {
  const auto s = synthetic_sweep();
  qos::QosTarget loose{"l", seconds(100), milliseconds(1)};
  EXPECT_GT(consolidation_headroom(s, loose), 1.0);
}

TEST(Dse, ConsolidationHeadroomOneWhenFloorAtOptimum) {
  const auto s = synthetic_sweep();
  // QoS so tight the floor sits above the efficiency optimum.
  qos::QosTarget tight{"t", milliseconds(100), milliseconds(95)};
  EXPECT_DOUBLE_EQ(consolidation_headroom(s, tight), 1.0);
}

TEST(Dse, EmptySweepThrows) {
  SweepResult empty;
  EXPECT_THROW((void)empty.optimal_index(Scope::kCores), ModelError);
  EXPECT_THROW((void)empty.baseline_uips(), ModelError);
}

/// A registry scenario trimmed so its fleet hits the cycle cap mid-run:
/// the truncation-propagation fixture.
dc::Scenario truncating_scenario() {
  dc::Scenario s = dc::Scenario::by_name("powercap-web");
  s.orchestration.cap.enabled = false;  // plain governed fleet
  s.max_cycles = 200'000;               // far below what the run needs
  return s;
}

TEST(Dse, GovernorSweepSurfacesTruncatedRuns) {
  const dc::Scenario s = truncating_scenario();
  testing::internal::CaptureStderr();
  const GovernorSweep sweep =
      sweep_governors(s, {ctrl::GovernorKind::kFixedMax}, 1);
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_EQ(sweep.points.size(), 1u);
  const dc::FleetResult& r = sweep.points[0].result;
  EXPECT_TRUE(r.truncated);  // the flag itself propagates through the sweep
  // The deterministic post-parallel pass warns on stderr, naming the run.
  EXPECT_NE(err.find("truncated"), std::string::npos);
  EXPECT_NE(err.find(s.name), std::string::npos);
}

TEST(Dse, ProvisioningSweepTreatsTruncatedRunsAsNotMeeting) {
  const dc::Scenario s = truncating_scenario();
  std::vector<ProvisioningArm> arms(1);
  arms[0].label = "fixed";
  testing::internal::CaptureStderr();
  const ProvisioningSweep sweep =
      sweep_provisioning(s, {2, 3}, arms, microseconds(200.0), 1);
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_EQ(sweep.points.size(), 2u);
  for (const auto& p : sweep.points) {
    ASSERT_EQ(p.results.size(), 1u);
    EXPECT_TRUE(p.results[0].truncated);
    EXPECT_FALSE(sweep.meets(p.results[0]));  // a partial run never "meets"
  }
  EXPECT_EQ(sweep.min_chips(0), -1);
  EXPECT_NE(err.find("truncated"), std::string::npos);
}

TEST(Dse, TruncatedMarkFlagsOnlyTruncatedRows) {
  // The bench-side half: every figure driver marks truncated rows through
  // this one shared helper.
  dc::FleetResult r;
  EXPECT_STREQ(bench::truncated_mark(r), "");
  r.truncated = true;
  EXPECT_STREQ(bench::truncated_mark(r), " [TRUNCATED]");
  EXPECT_STREQ(bench::truncated_mark(false), "");
  EXPECT_STREQ(bench::truncated_mark(true), " [TRUNCATED]");
}

}  // namespace
}  // namespace ntserv::dse
