#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ctrl/brownout.hpp"

namespace ntserv::ctrl {
namespace {

// The ladder escalates at pressure >= 2.0, counts an epoch calm below
// 0.75 and steps down after 3 consecutive calm epochs.
BrownoutConfig ladder_config() {
  BrownoutConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(Brownout, EscalatesOneRungPerOverloadedBarrier) {
  BrownoutController c{ladder_config()};
  EXPECT_EQ(c.stage(), BrownoutStage::kNormal);
  EXPECT_EQ(c.observe(2.0), BrownoutStage::kShedBatch);
  EXPECT_EQ(c.observe(5.0), BrownoutStage::kRelaxBatchQos);
  EXPECT_EQ(c.observe(1e9), BrownoutStage::kCriticalOnly);
  // Already at the top: further overload holds, never overflows.
  EXPECT_EQ(c.observe(1e9), BrownoutStage::kCriticalOnly);
}

TEST(Brownout, HysteresisBandHoldsTheStage) {
  BrownoutController c{ladder_config()};
  c.observe(3.0);
  ASSERT_EQ(c.stage(), BrownoutStage::kShedBatch);
  // Pressure between exit and enter: neither escalate nor recover, and
  // the band does not count toward recovery either.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c.observe(1.0), BrownoutStage::kShedBatch);
  EXPECT_EQ(c.calm_epochs(), 0);
}

TEST(Brownout, RecoversOneRungAfterConsecutiveCalmBarriers) {
  BrownoutController c{ladder_config()};
  c.observe(3.0);
  c.observe(3.0);
  ASSERT_EQ(c.stage(), BrownoutStage::kRelaxBatchQos);
  EXPECT_EQ(c.observe(0.1), BrownoutStage::kRelaxBatchQos);
  EXPECT_EQ(c.observe(0.1), BrownoutStage::kRelaxBatchQos);
  EXPECT_EQ(c.observe(0.1), BrownoutStage::kShedBatch);  // 3rd calm barrier
  // The calm count restarts per rung: three more to reach normal...
  EXPECT_EQ(c.observe(0.1), BrownoutStage::kShedBatch);
  EXPECT_EQ(c.observe(0.1), BrownoutStage::kShedBatch);
  EXPECT_EQ(c.observe(0.1), BrownoutStage::kNormal);
}

TEST(Brownout, OverloadResetsTheCalmCount) {
  BrownoutController c{ladder_config()};
  c.observe(3.0);
  c.observe(0.1);
  c.observe(0.1);
  EXPECT_EQ(c.observe(4.0), BrownoutStage::kRelaxBatchQos);  // calm streak voided
  c.observe(0.1);
  c.observe(0.1);
  EXPECT_EQ(c.stage(), BrownoutStage::kRelaxBatchQos);  // two calm: not enough
  EXPECT_EQ(c.observe(0.1), BrownoutStage::kShedBatch);
}

TEST(Brownout, MaxStageClampsTheLadder) {
  BrownoutConfig cfg = ladder_config();
  cfg.max_stage = BrownoutStage::kShedBatch;  // the dse shed-only arm
  BrownoutController c{cfg};
  for (int i = 0; i < 5; ++i) c.observe(100.0);
  EXPECT_EQ(c.stage(), BrownoutStage::kShedBatch);
}

TEST(Brownout, ValidationRejectsBadConfigs) {
  {
    BrownoutConfig cfg = ladder_config();
    cfg.max_stage = BrownoutStage::kNormal;  // a ladder that cannot act
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    BrownoutConfig cfg;  // disabled: nothing validated
    cfg.max_stage = BrownoutStage::kNormal;
    EXPECT_NO_THROW(cfg.validate());
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

// A breaker trips at a 50% failure rate over at least 8 dispatches,
// dwells open for 2 epochs and closes after 4 half-open successes.

void feed(CircuitBreaker& b, int dispatches, int failures) {
  for (int i = 0; i < dispatches; ++i) b.record_dispatch();
  for (int i = 0; i < failures; ++i) b.record_failure();
}

TEST(Breaker, ThinEvidenceNeverTrips) {
  CircuitBreaker b;
  feed(b, 7, 7);  // 100% failure but below the 8-dispatch minimum
  b.close_epoch();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allow_dispatch());
  EXPECT_EQ(b.trips(), 0);
}

TEST(Breaker, TripsAtTheBarrierOnTheWindowRate) {
  CircuitBreaker b;
  feed(b, 8, 4);  // exactly the 50% trip rate at the 8-dispatch minimum
  EXPECT_EQ(b.state(), BreakerState::kClosed);  // never mid-epoch
  b.close_epoch();
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow_dispatch());
  EXPECT_EQ(b.trips(), 1);
}

TEST(Breaker, WindowResetsEachEpoch) {
  CircuitBreaker b;
  feed(b, 8, 2);  // 25% < trip rate
  b.close_epoch();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  feed(b, 8, 2);  // failures do not accumulate across barriers
  b.close_epoch();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(Breaker, OpenDwellsThenProbesHalfOpen) {
  CircuitBreaker b;
  feed(b, 8, 8);
  b.close_epoch();
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  b.close_epoch();  // dwell epoch 1 of 2
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  b.close_epoch();  // dwell complete
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.allow_dispatch());
}

TEST(Breaker, HalfOpenClosesOnSustainedSuccess) {
  CircuitBreaker b;
  feed(b, 8, 8);
  b.close_epoch();
  b.close_epoch();
  b.close_epoch();
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
  for (int i = 0; i < 3; ++i) b.record_success();
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  b.record_success();  // the 4th probe success closes
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 1);
}

TEST(Breaker, HalfOpenReopensOnAnyFailure) {
  CircuitBreaker b;
  feed(b, 8, 8);
  b.close_epoch();
  b.close_epoch();
  b.close_epoch();
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
  for (int i = 0; i < 3; ++i) b.record_success();
  b.record_failure();  // one failure voids the probe
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 2);
  // The reopened dwell starts over.
  b.close_epoch();
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  b.close_epoch();
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
}

TEST(Breaker, ClosedStateIgnoresSuccessBookkeeping) {
  CircuitBreaker b;
  feed(b, 8, 0);
  for (int i = 0; i < 8; ++i) b.record_success();
  b.close_epoch();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 0);
}

}  // namespace
}  // namespace ntserv::ctrl
