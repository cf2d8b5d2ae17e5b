// Registry digests: one line per registry scenario and one per
// cycle-level sweep point, fingerprinting every modelled output, so a
// change can prove it moved nothing (or name what it moved).
//
// Each of dc::Scenario::registry()'s scenarios runs at 2 GHz on one
// worker with the trace and metrics enabled, and prints
//
//   <scenario> result=<fnv> trace=<fnv> metrics=<fnv>
//
// `result` is an FNV-1a over every FleetResult field — tenant rows,
// per-chip epochs and router epochs included, doubles as hex floats —
// and `trace` and `metrics` are FNV-1a digests of the trace JSONL and
// the metrics CSV. A field added to FleetResult, TenantResult,
// ctrl::EpochRecord or orch::RouterEpoch must be added to result_fields()
// below.
//
// The sweep lines cover sim::ServerSimulator::evaluate, the path behind
// fig1-fig4, the ablations and perfbench's uips-sweep: each profile of
// the scale-out suite and of the VM suite on a 3-point 0.2-2.0 GHz grid
// with bench_sim_config(), printed as
//
//   <profile>@<GHz> point=<fnv>
//
// where `point` is an FNV-1a over every OperatingPointResult field (the
// sampling window's cache and DRAM counters included). A field added to
// OperatingPointResult, SampleResult, ClusterMetrics, HierarchyStats,
// DramSystemStats, ActivityVector or PowerBreakdown must be added to
// point_fields() below. Scenarios and points fan out together over
// NTSERV_THREADS; the output does not depend on it.
//
// tests/golden/registry_digests.txt holds the expected output, and CI
// diffs a fresh run against it. A change that moves a modelled output
// regenerates the file and says why:
//
//   ./build/bench/registry_digest > tests/golden/registry_digests.txt
#include <cctype>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ntserv/ntserv.hpp"

using namespace ntserv;

namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// `name=value` lines; doubles print as exact hex floats.
class Fields {
 public:
  Fields() { os_ << std::hexfloat; }

  template <typename T>
  void add(const std::string& name, const T& value) {
    os_ << name << '=' << value << '\n';
  }
  template <typename T>
  void add_all(const std::string& name, const std::vector<T>& values) {
    add(name + ".size", values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      add(name + "[" + std::to_string(i) + "]", values[i]);
    }
  }

  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

void tenant_fields(Fields& f, const std::string& p, const dc::TenantResult& t) {
  f.add(p + "name", t.name);
  f.add(p + "completed", t.completed);
  f.add(p + "offered", t.offered);
  f.add(p + "shed", t.shed);
  f.add(p + "shed_rate", t.shed_rate);
  f.add(p + "completed_all", t.completed_all);
  f.add(p + "timed_out", t.timed_out);
  f.add(p + "hedged", t.hedged);
  f.add(p + "redispatched", t.redispatched);
  f.add(p + "in_flight", t.in_flight);
  f.add(p + "degraded_sla_violations", t.degraded_sla_violations);
  f.add(p + "brownout_shed", t.brownout_shed);
  f.add(p + "brownout_epochs", t.brownout_epochs);
  f.add(p + "mean_latency", t.mean_latency.value());
  f.add(p + "p50", t.p50.value());
  f.add(p + "p95", t.p95.value());
  f.add(p + "p99", t.p99.value());
  f.add(p + "mean_wait", t.mean_wait.value());
  f.add(p + "sla_violations", t.sla_violations);
  f.add(p + "busy_core_seconds", t.busy_core_seconds);
  f.add(p + "busy_share", t.busy_share);
  f.add(p + "energy", t.energy.value());
}

void epoch_fields(Fields& f, const std::string& p, const ctrl::EpochRecord& e) {
  f.add(p + "decision.frequency", e.decision.frequency.value());
  f.add(p + "decision.duty", e.decision.duty);
  f.add(p + "decision.sleeps", e.decision.sleeps);
  f.add(p + "decision.met_demand", e.decision.met_demand);
  f.add(p + "decision.avg_power", e.decision.avg_power.value());
  f.add(p + "chip", e.chip);
  f.add(p + "epoch", e.epoch);
  f.add(p + "utilization", e.utilization);
  f.add(p + "p99", e.p99.value());
  f.add(p + "duration", e.duration.value());
  f.add(p + "transition", e.transition);
  f.add(p + "transition_time", e.transition_time.value());
  f.add(p + "boosted", e.boosted);
  f.add(p + "violation", e.violation);
  f.add(p + "margin", e.margin);
  f.add(p + "down_time", e.down_time.value());
  f.add(p + "parked_time", e.parked_time.value());
  f.add(p + "capped", e.capped);
}

void router_fields(Fields& f, const std::string& p, const orch::RouterEpoch& e) {
  f.add(p + "epoch", e.epoch);
  f.add(p + "utilization", e.utilization);
  f.add(p + "offpeak", e.offpeak);
  f.add_all(p + "routed", e.routed);
  f.add(p + "fallback", e.fallback);
}

/// Every FleetResult field, in declaration order.
std::string result_fields(const dc::FleetResult& r) {
  Fields f;
  f.add("workload", r.workload);
  f.add("frequency", r.frequency.value());
  f.add("completed", r.completed);
  f.add("offered", r.offered);
  f.add("admitted", r.admitted);
  f.add("retries", r.retries);
  f.add("shed", r.shed);
  f.add("shed_rate", r.shed_rate);
  f.add("steered", r.steered);
  f.add("truncated", r.truncated);
  f.add("completed_all", r.completed_all);
  f.add("timed_out", r.timed_out);
  f.add("hedged", r.hedged);
  f.add("hedge_wins", r.hedge_wins);
  f.add("redispatched", r.redispatched);
  f.add("wasted_completions", r.wasted_completions);
  f.add("in_flight", r.in_flight);
  f.add("goodput", r.goodput);
  f.add("sla_violations", r.sla_violations);
  f.add("degraded_sla_violations", r.degraded_sla_violations);
  f.add("faults_injected", r.faults_injected);
  f.add("first_fault", r.first_fault.value());
  f.add("recovered", r.recovered);
  f.add("time_to_recover", r.time_to_recover.value());
  f.add("guardband_epochs", r.guardband_epochs);
  f.add("brownout_shed", r.brownout_shed);
  f.add("brownout_epochs", r.brownout_epochs);
  f.add_all("brownout_stage_epochs", r.brownout_stage_epochs);
  f.add("breaker_trips", r.breaker_trips);
  f.add("breaker_open_epochs", r.breaker_open_epochs);
  f.add("mean_latency", r.mean_latency.value());
  f.add("p50", r.p50.value());
  f.add("p95", r.p95.value());
  f.add("p99", r.p99.value());
  f.add("mean_wait", r.mean_wait.value());
  f.add("offered_rate", r.offered_rate);
  f.add("throughput", r.throughput);
  f.add("utilization", r.utilization);
  f.add_all("server_active_fraction", r.server_active_fraction);
  f.add("span_cycles", r.span_cycles);
  f.add("span_seconds", r.span_seconds.value());
  f.add("tenants.size", r.tenants.size());
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    tenant_fields(f, "tenants[" + std::to_string(t) + "].", r.tenants[t]);
  }
  f.add("energy", r.energy.value());
  f.add("avg_frequency_ghz", r.avg_frequency_ghz);
  f.add("transitions", r.transitions);
  f.add("transition_time_total", r.transition_time_total.value());
  f.add("transition_epochs", r.transition_epochs);
  f.add("qos_violation_epochs", r.qos_violation_epochs);
  f.add("epochs.size", r.epochs.size());
  for (std::size_t e = 0; e < r.epochs.size(); ++e) {
    epoch_fields(f, "epochs[" + std::to_string(e) + "].", r.epochs[e]);
  }
  f.add("autoscale_parks", r.autoscale_parks);
  f.add("autoscale_unparks", r.autoscale_unparks);
  f.add("autoscale_drains", r.autoscale_drains);
  f.add("emergency_wakes", r.emergency_wakes);
  f.add("parked_seconds", r.parked_seconds.value());
  f.add("wake_energy", r.wake_energy.value());
  f.add("cap_clamp_epochs", r.cap_clamp_epochs);
  f.add("cap_violation_epochs", r.cap_violation_epochs);
  f.add("fleet_cap", r.fleet_cap.value());
  f.add("peak_epoch_power", r.peak_epoch_power.value());
  f.add("router_epochs.size", r.router_epochs.size());
  for (std::size_t e = 0; e < r.router_epochs.size(); ++e) {
    router_fields(f, "router_epochs[" + std::to_string(e) + "].", r.router_epochs[e]);
  }
  f.add_all("group_names", r.group_names);
  f.add_all("group_dispatches", r.group_dispatches);
  f.add("group_energy.size", r.group_energy.size());
  for (std::size_t g = 0; g < r.group_energy.size(); ++g) {
    f.add("group_energy[" + std::to_string(g) + "]", r.group_energy[g].value());
  }
  f.add("governed", r.governed);
  f.add("brownout_enabled", r.brownout_enabled);
  return f.str();
}

void window_fields(Fields& f, const std::string& p, const sim::ClusterMetrics& m) {
  f.add(p + "cycles", m.cycles);
  f.add(p + "uipc", m.uipc);
  f.add(p + "ipc", m.ipc);
  f.add(p + "issue_utilization", m.issue_utilization);
  const cache::HierarchyStats& h = m.memory;
  f.add(p + "memory.l1i_hits", h.l1i_hits);
  f.add(p + "memory.l1i_misses", h.l1i_misses);
  f.add(p + "memory.l1d_hits", h.l1d_hits);
  f.add(p + "memory.l1d_misses", h.l1d_misses);
  f.add(p + "memory.merged_misses", h.merged_misses);
  f.add(p + "memory.llc_hits", h.llc_hits);
  f.add(p + "memory.llc_misses", h.llc_misses);
  f.add(p + "memory.llc_writebacks", h.llc_writebacks);
  f.add(p + "memory.l1_writebacks", h.l1_writebacks);
  f.add(p + "memory.back_invalidations", h.back_invalidations);
  f.add(p + "memory.owner_forwards", h.owner_forwards);
  f.add(p + "memory.xbar_flits", h.xbar_flits);
  f.add(p + "memory.rejected", h.rejected);
  f.add(p + "memory.prefetches_issued", h.prefetches_issued);
  const dram::DramSystemStats& d = m.dram;
  f.add(p + "dram.reads", d.reads);
  f.add(p + "dram.writes", d.writes);
  f.add(p + "dram.read_bytes", d.read_bytes);
  f.add(p + "dram.write_bytes", d.write_bytes);
  f.add(p + "dram.row_hit_rate", d.row_hit_rate);
  f.add(p + "dram.avg_read_latency_cycles", d.avg_read_latency_cycles);
  f.add(p + "dram.refreshes", d.refreshes);
  f.add(p + "dram.forwarded_reads", d.forwarded_reads);
  f.add(p + "dram_cycles", m.dram_cycles);
  f.add(p + "l1i_mpki", m.l1i_mpki);
  f.add(p + "l1d_mpki", m.l1d_mpki);
  f.add(p + "llc_mpki", m.llc_mpki);
  f.add(p + "branch_mpki", m.branch_mpki);
}

/// Every OperatingPointResult field, in declaration order.
std::string point_fields(const sim::OperatingPointResult& r) {
  Fields f;
  f.add("frequency", r.frequency.value());
  f.add("vdd", r.vdd.value());
  f.add("uips", r.uips);
  f.add("uipc_cluster", r.uipc_cluster);
  const power::ActivityVector& a = r.activity;
  f.add("activity.core_activity", a.core_activity);
  f.add("activity.llc_reads_per_s", a.llc_reads_per_s);
  f.add("activity.llc_writes_per_s", a.llc_writes_per_s);
  f.add("activity.llc_probes_per_s", a.llc_probes_per_s);
  f.add("activity.xbar_flits_per_s", a.xbar_flits_per_s);
  f.add("activity.dram_read_bw", a.dram_read_bw);
  f.add("activity.dram_write_bw", a.dram_write_bw);
  const power::PowerBreakdown& w = r.power;
  f.add("power.core_dynamic", w.core_dynamic.value());
  f.add("power.core_leakage", w.core_leakage.value());
  f.add("power.llc", w.llc.value());
  f.add("power.interconnect", w.interconnect.value());
  f.add("power.io", w.io.value());
  f.add("power.dram_background", w.dram_background.value());
  f.add("power.dram_dynamic", w.dram_dynamic.value());
  f.add("eff_cores", r.eff_cores);
  f.add("eff_soc", r.eff_soc);
  f.add("eff_server", r.eff_server);
  const sim::SampleResult& s = r.sampling;
  f.add("sampling.uipc_mean", s.uipc_mean);
  f.add("sampling.uipc_rel_error", s.uipc_rel_error);
  f.add("sampling.samples", s.samples);
  f.add("sampling.converged", s.converged);
  window_fields(f, "sampling.last_window.", s.last_window);
  f.add("sampling.per_sample.count", s.per_sample.count());
  f.add("sampling.per_sample.mean", s.per_sample.mean());
  f.add("sampling.per_sample.variance", s.per_sample.variance());
  f.add("sampling.per_sample.min", s.per_sample.min());
  f.add("sampling.per_sample.max", s.per_sample.max());
  window_fields(f, "window.", r.window);
  return f.str();
}

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::string digest_line(const dc::Scenario& s) {
  obs::Telemetry telemetry;
  telemetry.trace.enable();
  telemetry.metrics.enable();
  const dc::FleetResult r =
      dc::run_scenario(s, dc::RunOptions{.telemetry = &telemetry, .threads = 1});
  std::ostringstream trace, metrics;
  telemetry.trace.write_jsonl(trace);
  telemetry.metrics.write_csv(metrics);
  return s.name + " result=" + hex16(fnv1a(result_fields(r))) +
         " trace=" + hex16(fnv1a(trace.str())) + " metrics=" + hex16(fnv1a(metrics.str()));
}

/// "Data Serving" -> "data-serving".
std::string slug(const std::string& name) {
  std::string out;
  for (const unsigned char c : name) {
    out += c == ' ' ? '-' : static_cast<char>(std::tolower(c));
  }
  return out;
}

std::string point_line(const sim::ServerSimulator& simulator, Hertz f) {
  std::ostringstream ghz;
  ghz << std::fixed << std::setprecision(1) << in_ghz(f);
  return slug(simulator.profile().name) + "@" + ghz.str() +
         " point=" + hex16(fnv1a(point_fields(simulator.evaluate(f))));
}

}  // namespace

int main() {
  const std::vector<dc::Scenario> registry = dc::Scenario::registry();
  std::vector<workload::WorkloadProfile> profiles = workload::WorkloadProfile::scale_out_suite();
  for (auto& p : workload::WorkloadProfile::vm_suite()) profiles.push_back(std::move(p));
  std::vector<sim::ServerSimulator> simulators;
  for (const auto& p : profiles) {
    simulators.emplace_back(p, bench::default_platform(), bench::bench_sim_config());
  }
  const std::vector<Hertz> grid = bench::paper_frequency_grid(3);

  const std::size_t points = simulators.size() * grid.size();
  std::vector<std::string> lines(registry.size() + points);
  sim::parallel_for_index(/*threads=*/0, lines.size(), [&](std::size_t i) {
    if (i < registry.size()) {
      lines[i] = digest_line(registry[i]);
    } else {
      const std::size_t k = i - registry.size();
      lines[i] = point_line(simulators[k / grid.size()], grid[k % grid.size()]);
    }
  });
  std::cout << "# " << registry.size()
            << " registry scenarios at 2 GHz, 1 worker: FNV-1a of every FleetResult "
               "field, the trace JSONL and the metrics CSV (bench/registry_digest.cpp)\n";
  for (std::size_t i = 0; i < registry.size(); ++i) std::cout << lines[i] << '\n';
  std::cout << "# " << points << " ServerSimulator::evaluate points (" << profiles.size()
            << " profiles x " << grid.size()
            << " frequencies, bench_sim_config()): FNV-1a of every OperatingPointResult "
               "field\n";
  for (std::size_t i = registry.size(); i < lines.size(); ++i) std::cout << lines[i] << '\n';
  return 0;
}
