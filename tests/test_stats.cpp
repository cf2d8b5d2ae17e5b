#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace ntserv {
namespace {

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderror(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Xoshiro256StarStar rng{5};
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    all.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copy
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, ConfidenceIntervalShrinks) {
  Xoshiro256StarStar rng{7};
  RunningStats s;
  for (int i = 0; i < 10; ++i) s.add(rng.normal(100.0, 10.0));
  const double wide = s.ci_halfwidth();
  for (int i = 0; i < 990; ++i) s.add(rng.normal(100.0, 10.0));
  EXPECT_LT(s.ci_halfwidth(), wide / 5.0);
  EXPECT_LT(s.relative_error(), 0.01);
}

TEST(PercentileTracker, NearestRank) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(p.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentileTracker, UnsortedInput) {
  PercentileTracker p;
  for (double x : {5.0, 1.0, 9.0, 3.0, 7.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(99), 9.0);
}

TEST(PercentileTracker, ThrowsOnEmpty) {
  PercentileTracker p;
  EXPECT_THROW((void)p.percentile(50), ModelError);
  EXPECT_THROW((void)p.mean(), ModelError);
}

TEST(PercentileTracker, RejectsBadPercentile) {
  PercentileTracker p;
  p.add(1.0);
  EXPECT_THROW((void)p.percentile(-1), ModelError);
  EXPECT_THROW((void)p.percentile(101), ModelError);
}

}  // namespace
}  // namespace ntserv
