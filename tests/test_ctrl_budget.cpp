#include <gtest/gtest.h>

#include "ctrl/budget.hpp"
#include "common/error.hpp"

namespace ntserv::ctrl {
namespace {

BudgetConfig lognormal_config() {
  BudgetConfig c;
  c.kind = BudgetKind::kLognormal;
  c.mean = 8'000;
  c.sigma = 0.5;
  return c;
}

TEST(Budget, FixedReturnsTheMeanForEveryRequest) {
  BudgetConfig c;
  c.kind = BudgetKind::kFixed;
  c.mean = 8'000;
  const BudgetSampler s{c, 1};
  for (std::uint64_t id : {0ull, 1ull, 17ull, 123'456'789ull}) {
    EXPECT_EQ(s.sample(id), 8'000u);
  }
}

TEST(Budget, LognormalGoldenValues) {
  // Pinned stream: any change to the sampling algorithm or the seed
  // derivation shows up here before it silently re-shuffles every
  // heterogeneous-budget scenario.
  const BudgetSampler s{lognormal_config(), 42};
  EXPECT_EQ(s.sample(0), 3'424u);
  EXPECT_EQ(s.sample(1), 5'588u);
  EXPECT_EQ(s.sample(2), 8'755u);
  EXPECT_EQ(s.sample(3), 8'280u);
  EXPECT_EQ(s.sample(4), 4'188u);
}

TEST(Budget, LognormalExpectationMatchesTheConfiguredMean) {
  // mu is set to log(mean) - sigma^2/2, so E[X] = mean; the sample mean
  // over 50k draws lands within ~1%.
  const BudgetSampler s{lognormal_config(), 42};
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(s.sample(static_cast<std::uint64_t>(i)));
  EXPECT_NEAR(sum / n, 8'000.0, 8'000.0 * 0.02);
}

TEST(Budget, SamplingIsAPureFunctionOfId) {
  const BudgetSampler a{lognormal_config(), 42};
  const BudgetSampler b{lognormal_config(), 42};
  // Same id, any call order, distinct instances: identical budgets.
  EXPECT_EQ(a.sample(10), b.sample(10));
  (void)b.sample(999);
  (void)b.sample(0);
  EXPECT_EQ(a.sample(10), b.sample(10));
  // A different seed moves the stream.
  const BudgetSampler c{lognormal_config(), 43};
  EXPECT_NE(a.sample(10), c.sample(10));
}

TEST(Budget, FloorClampsTheLeftTail) {
  BudgetConfig c;
  c.kind = BudgetKind::kLognormal;
  c.mean = 100;
  c.sigma = 2.0;  // heavy dispersion: raw draws go below the 64-instruction floor
  const BudgetSampler s{c, 3};
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_GE(s.sample(static_cast<std::uint64_t>(i)), 64u);
  }
}

TEST(Budget, ValidationRejectsBadConfigs) {
  BudgetConfig c = lognormal_config();
  c.mean = 0;
  EXPECT_THROW(c.validate(), ModelError);
  c = lognormal_config();
  c.sigma = 0.0;
  EXPECT_THROW(c.validate(), ModelError);
}

}  // namespace
}  // namespace ntserv::ctrl
