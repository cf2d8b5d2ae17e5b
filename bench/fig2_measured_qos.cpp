// E3b — Fig. 2 from *measured* request latencies: the request-level
// serving layer (src/dc) drives open-loop Poisson traffic through fleets
// of simulated clusters, measures the 99th-percentile latency of completed
// requests at each frequency, and normalizes it against each application's
// QoS limit — the same curves as bench/fig2_qos_latency, but produced by
// requests actually queueing and being served rather than by the analytic
// UIPS-scaling rule.
//
// Expected shape: on the contention-free scenarios the measured curves
// track the analytic ones within ~10% (instructions per request are
// constant, so the latency ratio is the throughput ratio); the contended
// scenario shows what the analytic rule cannot — the tail blowing up once
// the service rate falls below the arrival rate at low frequency.
#include "bench_common.hpp"

using namespace ntserv;

namespace {

/// Contention-free serving scenario for one workload (the measured
/// counterpart of the analytic Fig. 2 series).
dc::Scenario light_scenario(const workload::WorkloadProfile& profile, std::uint64_t seed) {
  dc::Scenario s;
  s.name = "light:" + profile.name;
  s.profile = profile;
  s.policy = dc::BalancePolicy::kLeastLoaded;
  s.servers = 2;
  dc::TenantSpec& t = s.tenants[0];
  t.arrival.kind = dc::ArrivalKind::kPoisson;
  // Light enough that queueing contributes < a few percent to p99 even at
  // the 0.2 GHz end of the sweep, where service is ~5x slower.
  const int cores = sim::ClusterConfig{}.hierarchy.cores;
  t.arrival.rate = dc::rate_for_load(0.015, 2, cores, 8'000);
  t.user_instructions_per_request = 8'000;
  t.requests = 300;
  t.warmup_requests = 40;
  s.seed = seed;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TelemetryOptions topts =
      bench::parse_telemetry(argc, argv, "websearch-poisson-light");
  if (topts.any()) return bench::run_telemetry(topts);
  bench::print_header("Fig. 2 (measured) — p99 from simulated requests vs core frequency",
                      "Pahlevan et al., DATE'16, Figure 2 via request-level serving");

  const auto platform = bench::default_platform();
  // Coarser grid than the analytic driver: every point is a full fleet
  // simulation (hundreds of requests), not one SMARTS sample.
  const auto grid = bench::paper_frequency_grid(6);
  // Better-converged analytic reference than the default bench config:
  // the cross-check compares p99 *ratios*, so sampling noise in the UIPS
  // curve shows up directly as spurious delta.
  auto sim_config = bench::bench_sim_config();
  sim_config.smarts.warmup = 30'000;
  sim_config.smarts.measure = 60'000;
  sim_config.smarts.min_samples = 6;
  sim_config.smarts.max_samples = 12;
  dse::ExplorationDriver driver{platform, sim_config};

  const auto targets = qos::QosTarget::scale_out_suite();
  const auto profiles = workload::WorkloadProfile::scale_out_suite();

  // Analytic reference sweeps (UIPS scaling), all (workload, f) in one pool.
  const auto analytic = driver.sweep_all(profiles, grid);

  TextTable t({"f (GHz)", "workload", "p99 (us)", "measured norm.", "analytic norm.",
               "delta %", "util"});
  std::cout << "Measured vs analytic normalized p99 (contention-free Poisson):\n";
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const auto scenario = light_scenario(profiles[w], 11 + w);
    const auto measured = dse::sweep_measured_qos(scenario, targets[w], grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double analytic_norm = qos::normalized_latency(
          targets[w], analytic[w].points[i].uips, analytic[w].baseline_uips());
      const auto& p = measured.points[i];
      const double delta =
          analytic_norm > 0.0 ? (p.normalized_p99 / analytic_norm - 1.0) * 100.0 : 0.0;
      t.add_row({TextTable::num(in_ghz(grid[i]), 2), profiles[w].name,
                 TextTable::num(in_us(p.p99), 1), TextTable::num(p.normalized_p99, 3),
                 TextTable::num(analytic_norm, 3), TextTable::num(delta, 1),
                 TextTable::num(p.utilization, 3)});
    }
  }
  bench::print_table(t, "fig2_measured");

  // What the analytic rule cannot show: a contended fleet saturating as
  // frequency drops (service rate < arrival rate -> queueing tail).
  std::cout << "Contended scenario (" << "websearch-poisson-heavy"
            << "): measured tail vs frequency:\n";
  const auto heavy = dc::Scenario::by_name("websearch-poisson-heavy");
  const auto heavy_sweep =
      dse::sweep_measured_qos(heavy, qos::QosTarget::web_search(), grid);
  TextTable h({"f (GHz)", "p50 (us)", "p95 (us)", "p99 (us)", "norm. p99", "util",
               "saturated"});
  for (const auto& p : heavy_sweep.points) {
    h.add_row({TextTable::num(in_ghz(p.frequency), 2), TextTable::num(in_us(p.p50), 1),
               TextTable::num(in_us(p.p95), 1), TextTable::num(in_us(p.p99), 1),
               TextTable::num(p.normalized_p99, 3), TextTable::num(p.utilization, 3),
               p.truncated ? "yes" : "no"});
  }
  bench::print_table(h, "fig2_measured_heavy");

  // Policy face-off at the serving fleet's efficiency-relevant frequencies.
  // The offered/admitted/shed counters make saturation runs diagnosable:
  // a scenario that sheds 20% at a healthy tail reads very differently
  // from one that truncates with an unbounded queue.
  std::cout << "Scenario catalog at 2 GHz (policy / arrival / control coverage):\n";
  const auto catalog = dc::Scenario::registry();
  const auto results = dc::run_scenarios(catalog);
  TextTable c({"scenario", "policy", "arrivals", "p99 (us)", "mean (us)", "util",
               "offered", "shed %", "retries", "governor", "active frac"});
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    std::string fracs;
    for (double a : results[i].server_active_fraction) {
      if (!fracs.empty()) fracs += " ";
      fracs += TextTable::num(a, 2);
    }
    c.add_row({catalog[i].name, to_string(catalog[i].policy),
               to_string(catalog[i].tenants[0].arrival.kind),
               TextTable::num(in_us(results[i].p99), 1),
               TextTable::num(in_us(results[i].mean_latency), 1),
               TextTable::num(results[i].utilization, 3),
               std::to_string(results[i].offered),
               TextTable::num(results[i].shed_rate * 100.0, 1),
               std::to_string(results[i].retries), to_string(catalog[i].governor.kind),
               fracs});
  }
  bench::print_table(c, "fig2_measured_catalog");
  return 0;
}
