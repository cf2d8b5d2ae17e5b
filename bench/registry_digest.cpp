// Registry digests: one line per registry scenario fingerprinting every
// modelled output, so a change can prove it moved nothing (or name what
// it moved).
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
// below. The scenarios fan out over NTSERV_THREADS; the output does not
// depend on it.
//
// tests/golden/registry_digests.txt holds the expected output, and CI
// diffs a fresh run against it. A change that moves a modelled output
// regenerates the file and says why:
//
//   ./build/bench/registry_digest > tests/golden/registry_digests.txt
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

}  // namespace

int main() {
  const std::vector<dc::Scenario> registry = dc::Scenario::registry();
  std::vector<std::string> lines(registry.size());
  sim::parallel_for_index(/*threads=*/0, registry.size(),
                          [&](std::size_t i) { lines[i] = digest_line(registry[i]); });
  std::cout << "# " << registry.size()
            << " registry scenarios at 2 GHz, 1 worker: FNV-1a of every FleetResult "
               "field, the trace JSONL and the metrics CSV (bench/registry_digest.cpp)\n";
  for (const std::string& line : lines) std::cout << line << '\n';
  return 0;
}
