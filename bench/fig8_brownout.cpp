// E8 — Fig. 8 (graceful degradation): correlated rack-scale failures and
// overload brownout (src/fault domains + ctrl/brownout + orch emergency
// wake).
//
// The paper's scale-out fleets spread load over many small chips, but the
// chips share racks, PDUs and cooling loops: failures arrive correlated,
// not independent. This driver injects *domain*-level faults — a whole
// rack losing power, a cooling failure capping a rack's clocks — and
// contrasts graceful-degradation postures on identical traces:
//
//   off          — no brownout, no breakers, no emergency wake: the blind
//                  fleet pays the outage in latency-critical tail latency;
//   shed-only    — the brownout ladder clamped at its first rung (batch
//                  arrivals shed on sight under overload);
//   ladder       — the full ladder (shed, relaxed batch QoS, critical-
//                  only) plus per-chip circuit breakers;
//   ladder+ewake — the full ladder plus the autoscaler's emergency wake:
//                  a domain outage revives every parked chip at the same
//                  barrier, bypassing the hysteresis gate, recently-parked
//                  chips waking at the warm fraction of the latency.
//
// Expected shape (the PR's acceptance criteria): on rack-loss-web the
// ladder+ewake arm holds the latency-critical web tenant's p99 inside its
// bound with zero lost web requests while the blind arm violates the
// bound; both arms' accounting ledgers tile (offered == completed + shed
// + timed out + in flight, fleet-wide and per tenant). On
// thermal-emergency-mixed the capped fleet rides out the emergency with
// zero realized cap violations while the group-weighted split keeps the
// conventional group serving.
//
// `--smoke` runs both checks with asserted bounds and a non-zero exit on
// failure (the CI hook).
#include <cstring>

#include "bench_common.hpp"

using namespace ntserv;

namespace {

const dc::TenantResult& tenant_by_name(const dc::FleetResult& r,
                                       const std::string& name) {
  for (const auto& t : r.tenants) {
    if (t.name == name) return t;
  }
  throw ModelError("run has no tenant named '" + name + "'");
}

bool conserved(const dc::FleetResult& r) {
  bool ok = r.offered == r.completed_all + r.shed + r.timed_out + r.in_flight;
  for (const auto& t : r.tenants) {
    ok = ok && t.offered == t.completed_all + t.shed + t.timed_out + t.in_flight;
  }
  return ok;
}

void print_brownout_sweep(const dse::FaultSweep& sweep, const dc::Scenario& scenario,
                          const std::string& critical_tenant) {
  std::cout << "Scenario " << sweep.scenario << " (" << scenario.description << "),\n"
            << "  " << scenario.faults.domains.size() << " failure domains, "
            << scenario.servers << " chips, critical tenant '" << critical_tenant
            << "':\n";
  TextTable t({"arm", "crit p99 (us)", "crit viol", "crit lost", "bo shed",
               "bo epochs", "stages n/s/r/c", "trips", "brk epochs", "ewakes",
               "unparks", "capv", "lost", "goodput (r/s)"});
  auto add = [&](const std::string& label, const dc::FleetResult& r,
                 std::uint64_t lost) {
    const dc::TenantResult& crit = tenant_by_name(r, critical_tenant);
    std::string stages = "-";  // healthy reference arm runs without the ladder
    if (r.has_brownout_ladder()) {
      stages.clear();
      for (std::size_t i = 0; i < r.brownout_stage_epochs.size(); ++i) {
        stages += (i != 0U ? "/" : "") + std::to_string(r.brownout_stage_epochs[i]);
      }
    }
    t.add_row({label + bench::truncated_mark(r), TextTable::num(in_us(crit.p99), 1),
               std::to_string(crit.sla_violations),
               std::to_string(crit.shed + crit.timed_out + crit.in_flight),
               std::to_string(r.brownout_shed), std::to_string(r.brownout_epochs),
               stages, std::to_string(r.breaker_trips),
               std::to_string(r.breaker_open_epochs),
               std::to_string(r.emergency_wakes), std::to_string(r.autoscale_unparks),
               std::to_string(r.cap_violation_epochs), std::to_string(lost),
               TextTable::num(r.goodput, 0)});
  };
  add("healthy ref", sweep.healthy,
      sweep.healthy.shed + sweep.healthy.timed_out + sweep.healthy.in_flight);
  for (const auto& p : sweep.points) add(p.label, p.result, p.lost());
  bench::print_table(t, "fig8_brownout_" + sweep.scenario);
}

bool check(bool cond, const char* what, bool& ok) {
  std::cout << (cond ? "PASS" : "FAIL") << ": " << what << "\n";
  ok = ok && cond;
  return cond;
}

/// Acceptance (a): rack-scale loss — the ladder+ewake arm holds the web
/// tenant's bound with zero lost web requests; the blind arm violates it.
bool rackloss_acceptance(const dse::FaultSweep& sweep, const dc::Scenario& scenario) {
  bool ok = true;
  const auto& blind = sweep.at("off").result;
  const auto& full = sweep.at("ladder+ewake").result;
  const double bound = [&] {
    for (const auto& t : scenario.tenants) {
      if (t.name == "web") return t.qos_p99_limit.value();
    }
    return 0.0;
  }();
  const auto& blind_web = tenant_by_name(blind, "web");
  const auto& full_web = tenant_by_name(full, "web");
  check(!blind.truncated && !full.truncated, "both arms complete untruncated", ok);
  check(conserved(blind), "blind arm's ledger tiles (fleet and per tenant)", ok);
  check(conserved(full), "resilient arm's ledger tiles (fleet and per tenant)", ok);
  check(full_web.p99.value() <= bound,
        "ladder+ewake holds the web tenant's p99 inside its bound", ok);
  check(full_web.shed == 0 && full_web.timed_out == 0 && full_web.in_flight == 0,
        "ladder+ewake loses zero web requests", ok);
  check(blind_web.p99.value() > bound,
        "the blind arm violates the web tenant's p99 bound", ok);
  check(full.emergency_wakes > 0, "the domain outage triggers emergency wakes", ok);
  check(full.brownout_shed > 0 &&
            tenant_by_name(full, "web").brownout_shed == 0,
        "the ladder sheds batch work and never the critical tenant", ok);
  check(full.faults_injected >= 2, "the rack outage expands to per-chip crashes", ok);
  return ok;
}

/// Acceptance (b): thermal emergency under a group-weighted cap.
bool thermal_acceptance(const dse::FaultSweep& sweep) {
  bool ok = true;
  const auto& full = sweep.at("ladder+ewake").result;
  check(!full.truncated, "capped arm completes untruncated", ok);
  check(conserved(full), "capped arm's ledger tiles (fleet and per tenant)", ok);
  check(full.faults_injected >= 2,
        "the thermal emergency expands to per-chip degrades", ok);
  check(full.cap_clamp_epochs > 0, "the cap split clamps chip-epochs", ok);
  check(full.cap_violation_epochs == 0,
        "realized fleet power never exceeds the cap on the epoch grid", ok);
  return ok;
}

int run_smoke() {
  bool ok = true;
  {
    dc::Scenario s = dc::Scenario::by_name("rack-loss-web");
    const auto sweep = dse::sweep_faults(s, dse::default_brownout_arms());
    ok = rackloss_acceptance(sweep, s) && ok;
  }
  {
    dc::Scenario s = dc::Scenario::by_name("thermal-emergency-mixed");
    const auto sweep = dse::sweep_faults(s, dse::default_brownout_arms());
    ok = thermal_acceptance(sweep) && ok;
  }
  std::cout << (ok ? "SMOKE PASS" : "SMOKE FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  const bench::TelemetryOptions topts =
      bench::parse_telemetry(argc, argv, "rack-loss-web");
  if (topts.any()) return bench::run_telemetry(topts);

  bench::print_header(
      "Fig. 8 (graceful degradation) — correlated failure domains and "
      "overload brownout",
      "Pahlevan et al., DATE'16: rack-scale loss in many-chip NTC fleets");

  bool accepted = true;

  // 1. Rack-scale power loss at the diurnal trough: the brownout ladder.
  {
    dc::Scenario s = dc::Scenario::by_name("rack-loss-web");
    const auto sweep = dse::sweep_faults(s, dse::default_brownout_arms());
    print_brownout_sweep(sweep, s, "web");
    accepted = rackloss_acceptance(sweep, s) && accepted;
    std::cout << "\n";
  }

  // 2. Cooling failure on the NTC rack of a routed, capped fleet.
  {
    dc::Scenario s = dc::Scenario::by_name("thermal-emergency-mixed");
    const auto sweep = dse::sweep_faults(s, dse::default_brownout_arms());
    print_brownout_sweep(sweep, s, "interactive");
    accepted = thermal_acceptance(sweep) && accepted;
    std::cout << "\n";
  }

  std::cout << (accepted ? "ACCEPTANCE PASS" : "ACCEPTANCE FAIL")
            << " (rack loss: ladder+ewake holds the critical bound at zero loss "
               "while the blind arm violates it; thermal: capped fleet rides out "
               "the emergency)\n";
  return accepted ? 0 : 1;
}
