// Worker-count invariance of the parallel intra-run data plane
// (dc/runner.hpp, fleet.hpp): for ANY worker count, a fleet run must
// produce a bit-identical FleetResult and a byte-identical telemetry
// stream. The cases below run rack-loss-web (6 chips: faults, brownout
// ladder, breakers, emergency wake all active) on 1, 2 and 4 workers and
// consolidated-antiphase-search (1 chip: the worker cap clamps to the
// fleet size, NTC-boost + multi-tenant) on 1 and 4, as back-to-back runs
// of one FleetRunner — so they also check that runs are repeatable. The
// WindowCut goldens pin each lookahead window-cut rule to outcomes of
// the per-quantum loop the windows replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
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

TelemetryCapture run_with(const FleetRunner& runner, int threads) {
  obs::Telemetry telemetry;
  telemetry.trace.enable();
  telemetry.metrics.enable();
  TelemetryCapture out;
  out.result = runner.run(RunOptions{.telemetry = &telemetry, .threads = threads});
  std::ostringstream trace_os;
  telemetry.trace.write_jsonl(trace_os);
  out.trace_jsonl = trace_os.str();
  std::ostringstream metrics_os;
  telemetry.metrics.write_csv(metrics_os);
  out.metrics_csv = metrics_os.str();
  return out;
}

/// Run `scenario_name` serially and on each of `workers` through one
/// FleetRunner (a fresh engine per run), and require every run to match
/// the serial one.
void expect_worker_invariant(const std::string& scenario_name,
                             std::initializer_list<int> workers) {
  const FleetRunner runner{Scenario::by_name(scenario_name)};
  const TelemetryCapture reference = run_with(runner, /*threads=*/1);
  EXPECT_FALSE(reference.trace_jsonl.empty());
  for (const int threads : workers) {
    SCOPED_TRACE(scenario_name + " threads=" + std::to_string(threads));
    const TelemetryCapture got = run_with(runner, threads);
    // Whole-result equality: every field, doubles compared exactly — the
    // contract is bit-identity, not closeness.
    EXPECT_TRUE(reference.result == got.result);
    // The telemetry stream must match byte for byte: the trace sink
    // sorts its events into the canonical order at the end of the run,
    // and the metrics snapshots are taken serially at the barriers.
    EXPECT_EQ(reference.trace_jsonl, got.trace_jsonl);
    EXPECT_EQ(reference.metrics_csv, got.metrics_csv);
  }
}

TEST(ShardInvariance, RackLossWebIsBitIdenticalAcrossWorkerCounts) {
  // 6 chips, 2 failure domains, autoscaler + brownout + breakers +
  // hedging: every control-plane subsystem crosses the barrier while the
  // data plane runs on 2 and 4 workers under it.
  expect_worker_invariant("rack-loss-web", {2, 4});
}

TEST(ShardInvariance, ConsolidatedAntiphaseIsBitIdenticalAcrossWorkerCounts) {
  // One 2-cluster chip: 4 requested workers clamp to one, so the
  // clamping path itself is the contract under test — and both runs are
  // one-worker runs of one FleetRunner, so this is the repeatability check.
  expect_worker_invariant("consolidated-antiphase-search", {4});
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
// least one case. Both 1 and 4 workers must reproduce them.

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
  FleetConfig c = Scenario::by_name(scenario);
  c.warm_instructions = 100'000;
  return c;
}

void expect_golden(const FleetConfig& config, const Golden& want) {
  for (const int width : {1, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(width));
    obs::Telemetry telemetry;
    telemetry.trace.enable();
    const FleetResult r =
        FleetRunner{config}.run(RunOptions{.telemetry = &telemetry, .threads = width});
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

}  // namespace
}  // namespace ntserv::dc
