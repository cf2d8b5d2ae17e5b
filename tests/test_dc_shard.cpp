// Shard-invariance contract of the sharded intra-run data plane
// (dc/runner.hpp, fleet.hpp): for ANY shard count and ANY worker-thread
// count, a fleet run must produce a bit-identical FleetResult and a
// byte-identical telemetry stream. The matrix below exercises
// 1/2/4 shards x 1/4 threads on the two contract scenarios —
// rack-loss-web (6 chips: faults, brownout ladder, breakers, emergency
// wake all active) and consolidated-antiphase-search (1 chip: the
// degenerate plan-clamping case, NTC-boost + multi-tenant). The
// WindowCut goldens pin each lookahead window-cut rule to outcomes of the
// per-quantum loop the windows replaced.
#include <gtest/gtest.h>

#include <cstdint>
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

// ---- Window-cut goldens ----
//
// A run advances in lookahead windows: the coordinator's stages run at a
// window's first quantum, and the window ends at the first quantum whose
// time reaches the next fleet-visible event (see fleet.hpp). Each case
// below is a trimmed config whose windows are cut by one rule; the
// pinned fields and the trace digest are the outcome of the per-quantum
// loop the windows replaced (every quantum a coordinator step), captured
// exactly (doubles as hex literals). Dropping any one cut rule, or
// draining a window's completions at its last quantum's clock, fails at
// least one case. Both the serial plan and 4 shards x 4 threads must
// reproduce them.

struct Golden {
  std::uint64_t span_cycles = 0;
  std::uint64_t completed_all = 0;
  std::uint64_t hedged = 0;
  std::uint64_t wasted_completions = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  double p99 = 0.0;
  double energy = 0.0;
  double time_to_recover = 0.0;
  std::uint64_t trace_fnv = 0;  ///< FNV-1a of the trace JSONL
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A registry scenario with a short cache warm (the goldens need a
/// deterministic run, not a representative warm state).
FleetConfig trimmed(const std::string& scenario) {
  FleetConfig c = Scenario::by_name(scenario).fleet_config(ghz(2.0));
  c.warm_instructions = 100'000;
  return c;
}

void expect_golden(const FleetConfig& config, const Golden& want) {
  for (const int width : {1, 4}) {
    SCOPED_TRACE("shards = threads = " + std::to_string(width));
    obs::Telemetry telemetry;
    telemetry.trace.enable();
    const FleetResult r = FleetRunner{config}.run(
        RunOptions{.telemetry = &telemetry, .shards = width, .threads = width});
    std::ostringstream trace;
    telemetry.trace.write_jsonl(trace);
    EXPECT_EQ(r.span_cycles, want.span_cycles);
    EXPECT_EQ(r.completed_all, want.completed_all);
    EXPECT_EQ(r.hedged, want.hedged);
    EXPECT_EQ(r.wasted_completions, want.wasted_completions);
    EXPECT_EQ(r.timed_out, want.timed_out);
    EXPECT_EQ(r.retries, want.retries);
    EXPECT_EQ(r.p99.value(), want.p99);
    EXPECT_EQ(r.energy.value(), want.energy);
    EXPECT_EQ(r.time_to_recover.value(), want.time_to_recover);
    EXPECT_EQ(fnv1a(trace.str()), want.trace_fnv);
  }
}

TEST(WindowCut, TimeoutDeadlinesAndRetries) {
  // Saturated fleet with a client timeout shorter than the queueing
  // delay: windows end at deadline-heap and back-off-heap tops.
  FleetConfig c = trimmed("websearch-saturation-admission");
  c.resilience.timeout = microseconds(30.0);
  expect_golden(c, {.span_cycles = 598582, .completed_all = 132, .hedged = 0,
                    .wasted_completions = 91, .timed_out = 15, .retries = 569,
                    .p99 = 0x1.f103900c31273p-14, .energy = 0.0, .time_to_recover = 0.0,
                    .trace_fnv = 0xad39c32f23b3a5d6ull});
}

TEST(WindowCut, HedgeTimers) {
  // Hedges fall due between arrivals: windows end at the hedge-heap top.
  FleetConfig c = trimmed("websearch-saturation-admission");
  c.resilience.hedging = true;
  c.resilience.hedge_multiplier = 1.0;
  c.resilience.hedge_min_delay = microseconds(10.0);
  c.resilience.timeout = microseconds(40.0);
  expect_golden(c, {.span_cycles = 582262, .completed_all = 205, .hedged = 7,
                    .wasted_completions = 11, .timed_out = 0, .retries = 448,
                    .p99 = 0x1.9bbc38f151a01p-14, .energy = 0.0, .time_to_recover = 0.0,
                    .trace_fnv = 0x8973bed4df9b9766ull});
}

TEST(WindowCut, RacingCopiesGetOneQuantumWindows) {
  // Nearly every request hedges after 5 us, so copies race constantly:
  // a winner must cancel its sibling from the other chip's queue before
  // that chip runs another quantum.
  FleetConfig c = trimmed("dataserving-lognormal-budget");
  c.tenants[0].requests = 150;
  c.tenants[0].arrival.rate *= 2.0;
  c.resilience.hedging = true;
  c.resilience.hedge_multiplier = 1.0;
  c.resilience.hedge_min_delay = microseconds(5.0);
  c.resilience.hedge_warmup = 1'000'000;
  expect_golden(c, {.span_cycles = 1060816, .completed_all = 190, .hedged = 187,
                    .wasted_completions = 125, .timed_out = 0, .retries = 0,
                    .p99 = 0x1.d65845f6cf4e8p-14, .energy = 0.0, .time_to_recover = 0.0,
                    .trace_fnv = 0xff3654a9e7f25059ull});
}

TEST(WindowCut, DeadCopiesGetOneQuantumWindows) {
  // Every request outlives its 20 us timeout and is disposed while its
  // abandoned copy keeps serving, so the run ends one quantum after the
  // last timeout with dead copies still in service.
  FleetConfig c = trimmed("websearch-poisson-light");
  c.tenants[0].user_instructions_per_request = 30'000;
  c.tenants[0].arrival.rate = rate_for_load(0.3, 2, 4, 30'000);
  c.tenants[0].requests = 20;
  c.tenants[0].warmup_requests = 2;
  c.resilience.timeout = microseconds(20.0);
  c.admission.max_retries = 0;
  expect_golden(c, {.span_cycles = 693560, .completed_all = 0, .hedged = 0,
                    .wasted_completions = 20, .timed_out = 22, .retries = 0, .p99 = 0.0,
                    .energy = 0.0, .time_to_recover = 0.0,
                    .trace_fnv = 0x84b561ce12fc59ddull});
}

TEST(WindowCut, CrashRecoveryAndDrainClock) {
  // Health-blind crash and recovery: windows end at each fault, and the
  // stranded queue drains after recovery, so the recovery point is a
  // completion inside a window, stamped at its own quantum.
  FleetConfig c = trimmed("diurnal-chipfail");
  c.tenants[0].requests = 120;
  c.faults.events = {{0.2e-3, 1, fault::FaultKind::kCrash},
                     {0.4e-3, 1, fault::FaultKind::kRecover}};
  c.resilience.failover = false;
  c.resilience.hedging = false;
  expect_golden(c, {.span_cycles = 1314881, .completed_all = 160, .hedged = 0,
                    .wasted_completions = 0, .timed_out = 0, .retries = 0,
                    .p99 = 0x1.1dfe5818c8b36p-13, .energy = 0.0,
                    .time_to_recover = 0x1.cbd725e38c52bp-13,
                    .trace_fnv = 0xb72069ed803ce26eull});
}

TEST(WindowCut, EpochBoundariesAndTransitionStalls) {
  // Ondemand DVFS under bursts: windows end at every epoch boundary and
  // where a chip stalled mid-transition with queued work resumes.
  FleetConfig c = trimmed("dataserving-mmpp-ondemand");
  c.tenants[0].requests = 120;
  expect_golden(c, {.span_cycles = 2225454, .completed_all = 160, .hedged = 0,
                    .wasted_completions = 0, .timed_out = 0, .retries = 0,
                    .p99 = 0x1.9ce051da20844p-14, .energy = 0x1.7a58bb8e29373p-4,
                    .time_to_recover = 0.0, .trace_fnv = 0x45ac5398002b9842ull});
}

TEST(WindowCut, IdleSkipsInsideWindows) {
  // ~2.5 % load: chips go idle inside a window and the fleet hands over
  // to the idle skip until the next arrival.
  FleetConfig c = trimmed("websearch-poisson-light");
  c.tenants[0].requests = 80;
  expect_golden(c, {.span_cycles = 14013290, .completed_all = 120, .hedged = 0,
                    .wasted_completions = 0, .timed_out = 0, .retries = 0,
                    .p99 = 0x1.af3abc00728p-17, .energy = 0.0, .time_to_recover = 0.0,
                    .trace_fnv = 0x89386ad34fdec5d8ull});
}

TEST(WindowCut, MaxCyclesTruncation) {
  // Cut off mid-run by max_cycles with every chip busy.
  FleetConfig c = trimmed("websearch-poisson-heavy");
  c.max_cycles = 500'000;
  expect_golden(c, {.span_cycles = 500008, .completed_all = 91, .hedged = 0,
                    .wasted_completions = 0, .timed_out = 0, .retries = 0,
                    .p99 = 0x1.ab8cf9f58db6p-17, .energy = 0.0, .time_to_recover = 0.0,
                    .trace_fnv = 0xe0a9873ba0956c44ull});
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
