#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dc/runner.hpp"
#include "dc/scenario.hpp"
#include "obs/obs.hpp"
#include "sim/thread_pool.hpp"

namespace ntserv::obs {
namespace {

// ---------------------------------------------------------------------------
// TraceSink unit: the canonical (time, chip, kind, seq) order.
// ---------------------------------------------------------------------------

TEST(TraceSink, FinishSortsIntoCanonicalOrder) {
  TraceSink sink;
  sink.enable();
  sink.begin_run(/*chips=*/3);
  // Emit deliberately out of time order across chips — finish() restores
  // (time, chip, kind, seq) order.
  sink.emit(EventKind::kDispatch, /*chip=*/2, 0.002);
  sink.emit(EventKind::kDispatch, /*chip=*/0, 0.001);
  sink.emit(EventKind::kAdmit, /*chip=*/-1, 0.001);
  sink.emit(EventKind::kComplete, /*chip=*/0, 0.001);
  sink.emit(EventKind::kDispatch, /*chip=*/1, 0.0005);
  sink.finish();

  const auto& ev = sink.events();
  ASSERT_EQ(ev.size(), 5u);
  for (std::size_t i = 1; i < ev.size(); ++i) {
    const auto& a = ev[i - 1];
    const auto& b = ev[i];
    const bool ordered =
        a.time_s < b.time_s ||
        (a.time_s == b.time_s &&
         (a.chip < b.chip ||
          (a.chip == b.chip && (static_cast<int>(a.kind) < static_cast<int>(b.kind) ||
                                (a.kind == b.kind && a.seq < b.seq)))));
    EXPECT_TRUE(ordered) << "events " << i - 1 << " and " << i
                         << " violate the canonical order";
  }
  EXPECT_EQ(ev.front().time_s, 0.0005);
  EXPECT_EQ(ev.front().chip, 1);
  // The 0.001 tie resolves fleet scope (-1) first, then chip 0's kinds
  // in enum order (kDispatch < kComplete).
  EXPECT_EQ(ev[1].chip, -1);
  EXPECT_EQ(ev[2].kind, EventKind::kDispatch);
  EXPECT_EQ(ev[3].kind, EventKind::kComplete);
  EXPECT_EQ(ev.back().chip, 2);
}

TEST(TraceSink, LateEventWithEarlierTimestampSortsIntoPlace) {
  TraceSink sink;
  sink.enable();
  sink.begin_run(2);
  sink.emit(EventKind::kAdmit, -1, 0.5);
  sink.emit(EventKind::kDispatch, 0, 1.5);
  // A timeout drained after a barrier carries its earlier due time: it is
  // emitted last but belongs between the two.
  sink.emit(EventKind::kTimeout, -1, 1.2);
  sink.finish();
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::kAdmit);
  EXPECT_EQ(sink.events()[1].kind, EventKind::kTimeout);
  EXPECT_EQ(sink.events()[1].seq, 2u);
  EXPECT_EQ(sink.events()[2].kind, EventKind::kDispatch);
}

TEST(TraceSink, RejectsChipsOutsideTheFleet) {
  TraceSink sink;
  sink.enable();
  sink.begin_run(2);
  EXPECT_THROW(sink.emit(EventKind::kDispatch, 2, 0.1), ModelError);
  EXPECT_THROW(sink.emit(EventKind::kDispatch, -2, 0.1), ModelError);
  EXPECT_NO_THROW(sink.emit(EventKind::kDispatch, 1, 0.1));
}

TEST(TraceSink, DisabledSinkRecordsNothing) {
  TraceSink sink;
  sink.begin_run(2);
  sink.emit(EventKind::kAdmit, -1, 0.5);
  sink.emit_now(EventKind::kDispatch, 0);
  sink.finish();
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSink, JsonlIsOneObjectPerEvent) {
  TraceSink sink;
  sink.enable();
  sink.begin_run(1);
  sink.emit(EventKind::kAdmit, -1, 0.001, /*tenant=*/0, /*id=*/7);
  sink.emit(EventKind::kComplete, 0, 0.002, 0, 7, /*value=*/0.0005,
            /*aux_s=*/0.0015, /*core=*/3);
  sink.finish();
  std::ostringstream os;
  sink.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"kind\":\"admit\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"complete\""), std::string::npos);
  EXPECT_NE(text.find("\"id\":7"), std::string::npos);
  // One '\n'-terminated object per event.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, sink.events().size());
}

// ---------------------------------------------------------------------------
// MetricsRegistry unit: column kinds, histogram expansion, CSV schema.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndWindowedHistograms) {
  MetricsRegistry reg;
  reg.enable();  // a disabled registry no-ops snapshot()
  const auto c = reg.counter("fleet.completed");
  const auto g = reg.gauge("chip0.freq_ghz");
  const auto h = reg.histogram("fleet.latency_us");
  EXPECT_EQ(reg.counter("fleet.completed"), c);  // get-or-create
  EXPECT_EQ(reg.columns(), 3u);

  reg.add(c, 2.0);
  reg.add(c, 3.0);
  reg.set(g, 1.6);
  reg.observe(h, 10.0);
  reg.observe(h, 30.0);
  reg.snapshot(/*epoch=*/0, /*time_s=*/0.001);

  const auto names = reg.column_names();
  ASSERT_EQ(names.size(), 5u);  // histogram expands to count/mean/max
  EXPECT_EQ(names[0], "fleet.completed");
  EXPECT_EQ(names[1], "chip0.freq_ghz");
  EXPECT_EQ(names[2], "fleet.latency_us.count");
  EXPECT_EQ(names[3], "fleet.latency_us.mean");
  EXPECT_EQ(names[4], "fleet.latency_us.max");

  ASSERT_EQ(reg.rows(), 1u);
  const auto& row = reg.row(0);
  EXPECT_DOUBLE_EQ(row[0], 5.0);
  EXPECT_DOUBLE_EQ(row[1], 1.6);
  EXPECT_DOUBLE_EQ(row[2], 2.0);
  EXPECT_DOUBLE_EQ(row[3], 20.0);
  EXPECT_DOUBLE_EQ(row[4], 30.0);
  EXPECT_EQ(reg.row_epoch(0), 0u);

  // The histogram window resets per snapshot; counters keep running.
  reg.snapshot(1, 0.002);
  const auto& row1 = reg.row(1);
  EXPECT_DOUBLE_EQ(row1[0], 5.0);
  EXPECT_DOUBLE_EQ(row1[2], 0.0);

  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "epoch,time_us,fleet.completed,chip0.freq_ghz,fleet.latency_us.count,"
            "fleet.latency_us.mean,fleet.latency_us.max");
}

// ---------------------------------------------------------------------------
// Fleet integration: byte-identical telemetry at any thread count, and
// event-stream conservation against the run's aggregate counters.
// ---------------------------------------------------------------------------

struct Serialized {
  dc::FleetResult result;
  std::string trace_jsonl;
  std::string chrome_json;
  std::string metrics_csv;
  std::string metrics_jsonl;
};

Serialized run_with_telemetry(const dc::Scenario& s) {
  Telemetry t;
  t.trace.enable();
  t.metrics.enable();
  Serialized out;
  // Telemetry rides on RunOptions (no set_telemetry side channel); one
  // worker keeps this the reference stream the thread-count sweep below
  // compares against.
  out.result = dc::run_scenario(
      s, dc::RunOptions{.telemetry = &t, .threads = 1});
  std::ostringstream a, b, c, d;
  t.trace.write_jsonl(a);
  write_chrome_trace(b, t.trace, dc::trace_meta(s), &t.metrics);
  t.metrics.write_csv(c);
  t.metrics.write_jsonl(d);
  out.trace_jsonl = a.str();
  out.chrome_json = b.str();
  out.metrics_csv = c.str();
  out.metrics_jsonl = d.str();
  return out;
}

TEST(ObsDeterminism, TracesAreByteIdenticalAcrossThreadCounts) {
  // NTSERV_THREADS fans out only across independent runs; every emission
  // happens on one run's coordinator thread and the trace is sorted once
  // at the end, so the serialized telemetry must be byte-identical
  // whether the scenarios share a pool or not.
  const std::vector<dc::Scenario> scenarios = {
      dc::Scenario::by_name("rack-loss-web"),
      dc::Scenario::by_name("thermal-emergency-mixed")};
  auto run_all = [&](int threads) {
    std::vector<Serialized> out(scenarios.size());
    sim::parallel_for_index(threads, scenarios.size(),
                            [&](std::size_t i) { out[i] = run_with_telemetry(scenarios[i]); });
    return out;
  };
  const auto one = run_all(1);
  const auto four = run_all(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].trace_jsonl, four[i].trace_jsonl) << scenarios[i].name;
    EXPECT_EQ(one[i].chrome_json, four[i].chrome_json) << scenarios[i].name;
    EXPECT_EQ(one[i].metrics_csv, four[i].metrics_csv) << scenarios[i].name;
    EXPECT_EQ(one[i].metrics_jsonl, four[i].metrics_jsonl) << scenarios[i].name;
    EXPECT_FALSE(one[i].trace_jsonl.empty()) << scenarios[i].name;
    EXPECT_FALSE(one[i].metrics_csv.empty()) << scenarios[i].name;
  }
}

TEST(ObsConservation, EveryAdmitIsDisposedExactlyOnce) {
  // The request-lifecycle events tile: each admitted id ends as exactly
  // one of complete / shed / brownout-shed / timeout, or is still in
  // flight at truncation.
  const auto run = run_with_telemetry(dc::Scenario::by_name("rack-loss-web"));
  Telemetry t;
  t.trace.enable();
  const dc::Scenario s = dc::Scenario::by_name("rack-loss-web");
  const auto result =
      dc::run_scenario(s, dc::RunOptions{.telemetry = &t, .threads = 1});
  std::uint64_t admits = 0, completes = 0, sheds = 0, brownout_sheds = 0, timeouts = 0;
  for (const auto& e : t.trace.events()) {
    switch (e.kind) {
      case EventKind::kAdmit: ++admits; break;
      case EventKind::kComplete: ++completes; break;
      case EventKind::kShed: ++sheds; break;
      case EventKind::kBrownoutShed: ++brownout_sheds; break;
      case EventKind::kTimeout: ++timeouts; break;
      default: break;
    }
  }
  EXPECT_GT(admits, 0u);
  EXPECT_EQ(admits, completes + sheds + brownout_sheds + timeouts + result.in_flight);
  // The trace agrees with the aggregate counters the figures report.
  EXPECT_EQ(sheds + brownout_sheds, result.shed);
  EXPECT_EQ(brownout_sheds, result.brownout_shed);
  EXPECT_EQ(timeouts, result.timed_out);
  // And attaching telemetry does not perturb the simulation.
  EXPECT_EQ(result.completed, run.result.completed);
  EXPECT_EQ(result.span_cycles, run.result.span_cycles);
}

TEST(ObsConservation, EveryRetryIsTraced) {
  // A dark fleet: one chip crashes for good at 0.5 ms with no failover,
  // so every later attempt times out and backs off through the retry
  // budget. Each of those back-offs is a retry and must be traced as one.
  dc::FleetConfig cfg;
  cfg.profile = workload::WorkloadProfile::web_search();
  cfg.servers = 1;
  cfg.warm_instructions = 60'000;
  cfg.seed = 3;
  dc::TenantSpec& tenant = cfg.tenants[0];
  tenant.user_instructions_per_request = 3'000;
  tenant.arrival.kind = dc::ArrivalKind::kPoisson;
  tenant.arrival.rate = 10'000.0;
  tenant.requests = 30;
  tenant.warmup_requests = 5;
  cfg.faults.events = {{0.5e-3, 0, fault::FaultKind::kCrash}};
  cfg.resilience.timeout = Second{50e-6};
  Telemetry t;
  t.trace.enable();
  const auto r = dc::FleetRunner{cfg}.run({.telemetry = &t, .threads = 1});
  ASSERT_GT(r.timed_out, 0u);
  ASSERT_GT(r.retries, 0u);
  std::uint64_t retries = 0;
  for (const auto& e : t.trace.events()) {
    if (e.kind == EventKind::kRetry) ++retries;
  }
  EXPECT_EQ(retries, r.retries);
}

TEST(ObsConservation, TelemetryDoesNotPerturbTheRun) {
  const dc::Scenario s = dc::Scenario::by_name("thermal-emergency-mixed");
  const auto bare = dc::run_scenario(s);
  const auto traced = run_with_telemetry(s).result;
  EXPECT_TRUE(bare == traced);
}

TEST(ObsMetrics, OpenLoopRunWritesOneEndOfRunRow) {
  // An ungoverned fleet has no epoch barrier, so its registry gets one
  // row at the end of the run: epoch 0 at the span, power 0 (open-loop
  // runs charge no governor energy).
  dc::Scenario s = dc::Scenario::by_name("websearch-poisson-light");
  ASSERT_EQ(s.governor.kind, ctrl::GovernorKind::kNone);
  s.warm_instructions = 100'000;
  s.tenants[0].requests = 40;
  s.tenants[0].warmup_requests = 5;
  Telemetry t;
  t.metrics.enable();
  const auto r = dc::run_scenario(s, dc::RunOptions{.telemetry = &t, .threads = 1});
  ASSERT_EQ(t.metrics.rows(), 1u);
  EXPECT_EQ(t.metrics.row_epoch(0), 0u);
  EXPECT_EQ(t.metrics.row_time(0), r.span_seconds.value());
  const auto names = t.metrics.column_names();
  const auto column = [&](const std::string& name) {
    for (std::size_t c = 0; c < names.size(); ++c) {
      if (names[c] == name) return t.metrics.row(0)[c];
    }
    ADD_FAILURE() << "no metrics column " << name;
    return -1.0;
  };
  EXPECT_EQ(column("fleet.completed"), static_cast<double>(r.completed_all));
  EXPECT_EQ(column("fleet.latency_us.count"), static_cast<double>(r.completed));
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(column("fleet.power_w"), 0.0);
  EXPECT_EQ(column("chip0.power_w"), 0.0);
}

TEST(ObsChromeTrace, ExportIsWellFormedTraceEventJson) {
  const auto run = run_with_telemetry(dc::Scenario::by_name("rack-loss-web"));
  const std::string& json = run.chrome_json;
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":", 0), 0u) << "must open the trace object";
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos)
      << "must carry a traceEvents array";
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "request service spans";
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << "control-plane instants";
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << "metrics counter tracks";
  EXPECT_NE(json.find("process_name"), std::string::npos) << "pid metadata";
  // Balanced braces/brackets — the cheap well-formedness check that
  // catches a truncated or mis-terminated writer.
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// ---------------------------------------------------------------------------
// Rate fields under zero offered load (the NaN guard).
// ---------------------------------------------------------------------------

TEST(FleetResultRates, ZeroOfferedYieldsZeroRatesNotNaN) {
  // Truncate the run before the first arrival: offered == 0 and every
  // derived rate must come out 0.0, not 0/0.
  dc::Scenario s = dc::Scenario::by_name("websearch-poisson-light");
  s.max_cycles = 1;
  s.warm_instructions = 0;
  const auto r = dc::run_scenario(s);
  EXPECT_EQ(r.offered, 0u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.shed_rate, 0.0);
  EXPECT_EQ(r.offered_rate, 0.0);
  EXPECT_EQ(r.throughput, 0.0);
  EXPECT_EQ(r.goodput, 0.0);
  EXPECT_FALSE(std::isnan(r.utilization));
  EXPECT_FALSE(std::isnan(r.mean_latency.value()));
  EXPECT_FALSE(std::isnan(r.p99.value()));
}

// ---------------------------------------------------------------------------
// Zero-cost contract smoke (the strict bound lives in BM_TraceOverhead).
// ---------------------------------------------------------------------------

TEST(TraceSink, DisabledEmitIsCheap) {
  TraceSink sink;  // never enabled
  constexpr int kOps = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    sink.emit(EventKind::kDispatch, 2, 1.0, 0, i);
  }
  const double ns_per_emit =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
          .count() /
      static_cast<double>(kOps);
  // Very lenient for noisy CI machines; the one-branch fast path
  // measures well under 1 ns — 100 ns only trips on an accidental
  // allocation or lock in the disabled path.
  EXPECT_LT(ns_per_emit, 100.0);
}

}  // namespace
}  // namespace ntserv::obs
