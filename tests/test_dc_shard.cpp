// Shard-invariance contract of the sharded intra-run data plane
// (dc/runner.hpp, fleet.hpp): for ANY shard count and ANY worker-thread
// count, a fleet run must produce a bit-identical FleetResult and a
// byte-identical telemetry stream. The matrix below exercises
// 1/2/4 shards x 1/4 threads on the two contract scenarios —
// rack-loss-web (6 chips: faults, brownout ladder, breakers, emergency
// wake all active) and consolidated-antiphase-search (1 chip: the
// degenerate plan-clamping case, NTC-boost + multi-tenant).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dc/runner.hpp"
#include "dc/scenario.hpp"

namespace ntserv::dc {
namespace {

struct TelemetryCapture {
  FleetResult result;
  std::string trace_jsonl;
  std::string metrics_csv;
};

TelemetryCapture run_with(const Scenario& s, int shards, int threads) {
  obs::Telemetry telemetry;
  telemetry.trace.enable();
  telemetry.metrics.enable();
  TelemetryCapture out;
  out.result = run_scenario(
      s, ghz(2.0),
      RunOptions{.telemetry = &telemetry, .shards = shards, .threads = threads});
  std::ostringstream trace_os;
  telemetry.trace.write_jsonl(trace_os);
  out.trace_jsonl = trace_os.str();
  std::ostringstream metrics_os;
  telemetry.metrics.write_csv(metrics_os);
  out.metrics_csv = metrics_os.str();
  return out;
}

void expect_matrix_invariant(const std::string& scenario_name) {
  const Scenario s = Scenario::by_name(scenario_name);
  const TelemetryCapture reference = run_with(s, /*shards=*/1, /*threads=*/1);
  EXPECT_FALSE(reference.trace_jsonl.empty());
  for (const int shards : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      if (shards == 1 && threads == 1) continue;
      SCOPED_TRACE(scenario_name + " shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const TelemetryCapture got = run_with(s, shards, threads);
      // Whole-result equality: every field, doubles compared exactly — the
      // contract is bit-identity, not closeness.
      EXPECT_TRUE(reference.result == got.result);
      // The telemetry stream must match byte for byte: the trace merge
      // at the epoch barrier assigns the canonical order, and the
      // metrics snapshots are taken serially at the same barrier.
      EXPECT_EQ(reference.trace_jsonl, got.trace_jsonl);
      EXPECT_EQ(reference.metrics_csv, got.metrics_csv);
    }
  }
}

TEST(ShardInvariance, RackLossWebIsBitIdenticalAcrossShardsAndThreads) {
  // 6 chips, 2 failure domains, autoscaler + brownout + breakers +
  // hedging: every control-plane subsystem crosses the barrier while the
  // data plane is sharded under it.
  expect_matrix_invariant("rack-loss-web");
}

TEST(ShardInvariance, ConsolidatedAntiphaseIsBitIdenticalAcrossShardsAndThreads) {
  // One 2-cluster chip: every plan clamps to a single shard, so the
  // matrix degenerates to pool-width variation only — the clamping path
  // itself is the contract under test.
  expect_matrix_invariant("consolidated-antiphase-search");
}

TEST(ShardPlan, SplitsChipsContiguouslyAndBalanced) {
  const ShardPlan plan = ShardPlan::make(/*servers=*/10, /*shards=*/4, /*fleet_seed=*/7);
  ASSERT_EQ(plan.shard_count(), 4);
  // 10 chips over 4 shards: the first two shards carry the remainder.
  EXPECT_EQ(plan.shards[0].chips, 3);
  EXPECT_EQ(plan.shards[1].chips, 3);
  EXPECT_EQ(plan.shards[2].chips, 2);
  EXPECT_EQ(plan.shards[3].chips, 2);
  int next = 0;
  for (const auto& r : plan.shards) {
    EXPECT_EQ(r.first_chip, next);
    next += r.chips;
  }
  EXPECT_EQ(next, 10);
  plan.validate(10);
}

TEST(ShardPlan, SeedsAreDerivedPerShardAndDeterministic) {
  const ShardPlan a = ShardPlan::make(8, 4, 42);
  const ShardPlan b = ShardPlan::make(8, 4, 42);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.shards[static_cast<std::size_t>(i)].seed,
              b.shards[static_cast<std::size_t>(i)].seed);
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NE(a.shards[static_cast<std::size_t>(i)].seed,
                a.shards[static_cast<std::size_t>(j)].seed);
    }
  }
  // A different fleet seed derives a different shard stream.
  const ShardPlan c = ShardPlan::make(8, 4, 43);
  EXPECT_NE(a.shards[0].seed, c.shards[0].seed);
}

TEST(ShardPlan, ClampsShardCountToTheFleetSize) {
  EXPECT_EQ(ShardPlan::make(3, 16, 1).shard_count(), 3);
  EXPECT_EQ(ShardPlan::make(1, 4, 1).shard_count(), 1);
}

TEST(ShardPlan, ValidateRejectsForeignPlans) {
  ShardPlan plan = ShardPlan::make(6, 2, 1);
  EXPECT_THROW(plan.validate(7), ModelError);  // does not cover chip 6
  plan.shards[1].first_chip = 4;               // gap after shard 0
  EXPECT_THROW(plan.validate(6), ModelError);
  EXPECT_THROW(ShardPlan{}.validate(1), ModelError);
}

TEST(FleetRunner, PlanFollowsOptionsAndConfig) {
  const Scenario s = Scenario::by_name("rack-loss-web");  // 6 chips
  const FleetRunner runner{s.fleet_config(ghz(2.0))};
  EXPECT_EQ(runner.plan(RunOptions{.shards = 3}).shard_count(), 3);
  EXPECT_EQ(runner.plan(RunOptions{.shards = 16}).shard_count(), 6);
  EXPECT_EQ(runner.plan(RunOptions{.shards = 1}).shard_count(), 1);
  // Auto shard count never exceeds the requested worker width.
  EXPECT_EQ(runner.plan(RunOptions{.threads = 2}).shard_count(), 2);
}

TEST(FleetRunner, RunsAreRepeatable) {
  // A FleetRunner builds a fresh engine per run(), so back-to-back runs
  // are independent, identically-seeded experiments.
  Scenario s = Scenario::by_name("consolidated-antiphase-search");
  const FleetRunner runner{s.fleet_config(ghz(2.0))};
  const FleetResult a = runner.run(RunOptions{.shards = 1, .threads = 1});
  const FleetResult b = runner.run(RunOptions{.shards = 1, .threads = 1});
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace ntserv::dc
