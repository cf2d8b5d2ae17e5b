#include <gtest/gtest.h>

#include "ctrl/admission.hpp"
#include "dc/scenario.hpp"

namespace ntserv::ctrl {
namespace {

AdmissionConfig enabled_config() {
  AdmissionConfig c;
  c.enabled = true;
  c.max_outstanding_per_core = 3.0;
  c.max_retries = 2;
  c.backoff = microseconds(50.0);
  return c;
}

TEST(Admission, AdmitsBelowTheDepthThresholdRejectsAtIt) {
  const AdmissionController a{enabled_config()};
  // Threshold: 3 per core * 4 cores = 12 outstanding.
  EXPECT_TRUE(a.admit(0, 4));
  EXPECT_TRUE(a.admit(11, 4));
  EXPECT_FALSE(a.admit(12, 4));
  EXPECT_FALSE(a.admit(100, 4));
}

TEST(Admission, DisabledControllerAdmitsEverything) {
  AdmissionConfig c = enabled_config();
  c.enabled = false;
  const AdmissionController a{c};
  EXPECT_TRUE(a.admit(10'000, 1));
}

TEST(Admission, BackoffDoublesDeterministically) {
  const AdmissionController a{enabled_config()};
  EXPECT_DOUBLE_EQ(a.retry_delay(0).value(), 50e-6);
  EXPECT_DOUBLE_EQ(a.retry_delay(1).value(), 100e-6);
  EXPECT_DOUBLE_EQ(a.retry_delay(2).value(), 200e-6);
  EXPECT_TRUE(a.may_retry(0));
  EXPECT_TRUE(a.may_retry(1));
  EXPECT_FALSE(a.may_retry(2));
}

TEST(Admission, ValidationRejectsBadConfigs) {
  AdmissionConfig c = enabled_config();
  c.max_outstanding_per_core = 0.0;
  EXPECT_THROW(c.validate(), ModelError);
  c = enabled_config();
  c.max_retries = -1;
  EXPECT_THROW(c.validate(), ModelError);
  c = enabled_config();
  c.backoff = Second{0.0};
  EXPECT_THROW(c.validate(), ModelError);
}

/// A Poisson overload (~2.5x the fleet's nominal service capacity) that
/// would previously only be survivable via the truncation cycle cap.
dc::Scenario saturated_scenario() {
  dc::Scenario s = dc::Scenario::by_name("websearch-saturation-admission");
  s.tenants[0].requests = 150;
  s.tenants[0].warmup_requests = 15;
  return s;
}

TEST(Admission, SaturatedPoissonShedsInsteadOfTruncating) {
  const auto r = dc::run_scenario(saturated_scenario(), ghz(2.0));
  // Back-off lets the run dispose of every offered request: no truncation.
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.offered, 165u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.shed, 0u);
  EXPECT_LT(r.shed_rate, 0.9);
  EXPECT_NEAR(r.shed_rate, static_cast<double>(r.shed) / static_cast<double>(r.offered),
              1e-12);
  // Every offered request was either admitted somewhere or shed for good.
  EXPECT_EQ(r.admitted + r.shed, r.offered);
  // Measured completions lose any shed measured ids (sheds may also land
  // entirely in the warmup transient, hence <=).
  EXPECT_LE(r.completed, 150u);
  EXPECT_GT(r.completed, 0u);
}

TEST(Admission, WithoutAdmissionTheSameOverloadTruncates) {
  dc::Scenario s = saturated_scenario();
  s.admission.enabled = false;
  auto cfg = s.fleet_config(ghz(2.0));
  cfg.max_cycles = 300'000;  // tight cap: the unbounded queue hits it
  const auto r = dc::FleetRunner{cfg}.run({.shards = 1, .threads = 1});
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.shed, 0u);
}

TEST(Admission, BackoffRunsAreDeterministic) {
  const auto a = dc::run_scenario(saturated_scenario(), ghz(2.0));
  const auto b = dc::run_scenario(saturated_scenario(), ghz(2.0));
  EXPECT_GT(a.retries, 0u);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace ntserv::ctrl
