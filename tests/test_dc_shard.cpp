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

/// Exhaustive result comparison: every aggregate, ledger, control-loop
/// and orchestration field, plus the per-tenant slices. EXPECT_EQ on
/// doubles is deliberate — the contract is bit-identity, not closeness.
void expect_identical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.steered, b.steered);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.completed_all, b.completed_all);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.hedged, b.hedged);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.redispatched, b.redispatched);
  EXPECT_EQ(a.wasted_completions, b.wasted_completions);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.degraded_sla_violations, b.degraded_sla_violations);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.first_fault.value(), b.first_fault.value());
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.time_to_recover.value(), b.time_to_recover.value());
  EXPECT_EQ(a.guardband_epochs, b.guardband_epochs);
  EXPECT_EQ(a.brownout_shed, b.brownout_shed);
  EXPECT_EQ(a.brownout_epochs, b.brownout_epochs);
  EXPECT_EQ(a.brownout_stage_epochs, b.brownout_stage_epochs);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.breaker_open_epochs, b.breaker_open_epochs);
  EXPECT_EQ(a.mean_latency.value(), b.mean_latency.value());
  EXPECT_EQ(a.p50.value(), b.p50.value());
  EXPECT_EQ(a.p95.value(), b.p95.value());
  EXPECT_EQ(a.p99.value(), b.p99.value());
  EXPECT_EQ(a.mean_wait.value(), b.mean_wait.value());
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.server_active_fraction, b.server_active_fraction);
  EXPECT_EQ(a.span_cycles, b.span_cycles);
  EXPECT_EQ(a.span_seconds.value(), b.span_seconds.value());
  EXPECT_EQ(a.energy.value(), b.energy.value());
  EXPECT_EQ(a.avg_frequency_ghz, b.avg_frequency_ghz);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.transition_time_total.value(), b.transition_time_total.value());
  EXPECT_EQ(a.transition_epochs, b.transition_epochs);
  EXPECT_EQ(a.qos_violation_epochs, b.qos_violation_epochs);
  EXPECT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_EQ(a.autoscale_parks, b.autoscale_parks);
  EXPECT_EQ(a.autoscale_unparks, b.autoscale_unparks);
  EXPECT_EQ(a.autoscale_drains, b.autoscale_drains);
  EXPECT_EQ(a.emergency_wakes, b.emergency_wakes);
  EXPECT_EQ(a.parked_seconds.value(), b.parked_seconds.value());
  EXPECT_EQ(a.wake_energy.value(), b.wake_energy.value());
  EXPECT_EQ(a.cap_clamp_epochs, b.cap_clamp_epochs);
  EXPECT_EQ(a.cap_violation_epochs, b.cap_violation_epochs);
  EXPECT_EQ(a.peak_epoch_power.value(), b.peak_epoch_power.value());
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const TenantResult& ta = a.tenants[t];
    const TenantResult& tb = b.tenants[t];
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.completed, tb.completed);
    EXPECT_EQ(ta.offered, tb.offered);
    EXPECT_EQ(ta.shed, tb.shed);
    EXPECT_EQ(ta.completed_all, tb.completed_all);
    EXPECT_EQ(ta.timed_out, tb.timed_out);
    EXPECT_EQ(ta.hedged, tb.hedged);
    EXPECT_EQ(ta.brownout_shed, tb.brownout_shed);
    EXPECT_EQ(ta.sla_violations, tb.sla_violations);
    EXPECT_EQ(ta.p99.value(), tb.p99.value());
    EXPECT_EQ(ta.energy.value(), tb.energy.value());
  }
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
      expect_identical(reference.result, got.result);
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
  expect_identical(a, b);
}

}  // namespace
}  // namespace ntserv::dc
