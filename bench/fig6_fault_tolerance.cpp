// E6 — Fig. 6 (fault tolerance): availability and tail latency of serving
// fleets under injected failures (src/fault + dc resilience + ctrl
// guardband).
//
// The paper argues near-threshold fleets win by spreading load over many
// small chips; more chips means more independent failure domains, so the
// reproduction's serving layer has to show what a chip loss actually
// costs. This driver contrasts resilience postures on *identical*
// deterministic failure traces:
//
//   health-blind — no failover: a crashed chip restarts its in-flight
//                  work locally and its queue waits out the outage;
//   failover     — crash drains the victim's queue and re-dispatches
//                  in-flight losses onto healthy chips;
//   full         — failover plus per-request timeouts and p95-derived
//                  hedged requests (first completion wins).
//
// A second experiment exercises the guardband-degraded governors: after an
// error event the per-chip governor backs off FBB overdrive and runs with
// a raised operating margin (charged through the power model), relaxing
// back to nominal over rate-limited epochs. The recovery bound is
// hold + ceil(margin/step) epochs, and the margin shows up as a measured
// energy overhead against the healthy run.
//
// Expected shape (the PR's acceptance criteria): on diurnal-chipfail the
// full posture keeps p99 SLA violations strictly below the health-blind
// baseline with zero lost requests in *both* arms (nothing shed, timed
// out or stranded — the baseline pays the outage purely in tail
// latency); on ntc-guardband-web every chip returns to its pre-fault
// operating point within the analytic epoch bound at a nonzero, reported
// energy overhead.
//
// `--smoke` runs both checks with asserted bounds and a non-zero exit on
// failure (the CI hook).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "bench_common.hpp"

using namespace ntserv;

namespace {



void print_fault_sweep(const dse::FaultSweep& sweep, const dc::Scenario& scenario) {
  std::cout << "Scenario " << sweep.scenario << " (" << scenario.description << "),\n"
            << "  " << scenario.faults.events.size() << " scripted fault events, "
            << scenario.servers << " chips:\n";
  TextTable t({"arm", "p99 (us)", "viol", "deg viol", "lost", "timed out",
               "hedged", "hedge wins", "redisp", "wasted", "goodput (r/s)",
               "recovered", "ttr (us)"});
  auto add = [&](const std::string& label, const dc::FleetResult& r,
                 std::uint64_t lost) {
    t.add_row({label + bench::truncated_mark(r), TextTable::num(in_us(r.p99), 1),
               std::to_string(r.sla_violations),
               std::to_string(r.degraded_sla_violations), std::to_string(lost),
               std::to_string(r.timed_out), std::to_string(r.hedged),
               std::to_string(r.hedge_wins), std::to_string(r.redispatched),
               std::to_string(r.wasted_completions), TextTable::num(r.goodput, 0),
               r.recovered ? "yes" : "no",
               TextTable::num(in_us(r.time_to_recover), 1)});
  };
  add("healthy ref", sweep.healthy,
      sweep.healthy.shed + sweep.healthy.timed_out + sweep.healthy.in_flight);
  for (const auto& p : sweep.points) add(p.label, p.result, p.lost());
  bench::print_table(t, "fig6_fault_tolerance_" + sweep.scenario);
}

/// Last epoch record per chip (the fleet's final operating point).
std::map<int, ctrl::EpochRecord> final_epochs(const dc::FleetResult& r) {
  std::map<int, ctrl::EpochRecord> last;
  for (const auto& e : r.epochs) last[e.chip] = e;  // records are in time order
  return last;
}

/// Analytic guardband recovery bound per error event: hold epochs plus the
/// rate-limited relaxation back to zero margin.
int guardband_bound(const ctrl::GovernorConfig& g) {
  if (g.guardband_margin <= 0.0 || g.guardband_relax_step <= 0.0) return 0;
  return g.guardband_hold_epochs +
         static_cast<int>(std::ceil(g.guardband_margin / g.guardband_relax_step));
}

void print_guardband(const dc::FleetResult& faulted, const dc::FleetResult& healthy,
                     const dc::Scenario& scenario) {
  std::cout << "Scenario " << scenario.name << " (" << scenario.description << "),\n"
            << "  guardband margin " << scenario.governor.guardband_margin << ", hold "
            << scenario.governor.guardband_hold_epochs << " epochs, relax step "
            << scenario.governor.guardband_relax_step << " per epoch (bound "
            << guardband_bound(scenario.governor) << " epochs per error):\n";
  TextTable t({"run", "energy (mJ)", "gb epochs", "p99 (us)", "viol",
               "final margin", "final f (GHz)", "recovered", "ttr (us)"});
  auto add = [&](const std::string& label, const dc::FleetResult& r) {
    double final_margin = 0.0;
    double final_f = 0.0;
    for (const auto& [chip, e] : final_epochs(r)) {
      final_margin = std::max(final_margin, e.margin);
      final_f = std::max(final_f, e.decision.frequency.value() / 1e9);
    }
    t.add_row({label + bench::truncated_mark(r), TextTable::num(r.energy.value() * 1e3, 3),
               std::to_string(r.guardband_epochs), TextTable::num(in_us(r.p99), 1),
               std::to_string(r.sla_violations), TextTable::num(final_margin, 3),
               TextTable::num(final_f, 3), r.recovered ? "yes" : "no",
               TextTable::num(in_us(r.time_to_recover), 1)});
  };
  add("faulted", faulted);
  add("healthy", healthy);
  bench::print_table(t, "fig6_guardband_" + scenario.name);
  const double overhead = faulted.energy.value() - healthy.energy.value();
  std::cout << "Guardband energy overhead: " << overhead * 1e3 << " mJ ("
            << overhead / healthy.energy.value() * 100.0 << "% of healthy)\n\n";
}

bool check(bool cond, const char* what, bool& ok) {
  std::cout << (cond ? "PASS" : "FAIL") << ": " << what << "\n";
  ok = ok && cond;
  return cond;
}

/// Acceptance (a): chip crash under failover+hedging vs health-blind.
bool chipfail_acceptance(const dse::FaultSweep& sweep) {
  bool ok = true;
  const auto& blind = sweep.at("health-blind").result;
  const auto& full = sweep.at("full").result;
  check(!blind.truncated && !full.truncated, "both arms complete untruncated", ok);
  check(full.sla_violations < blind.sla_violations,
        "failover+hedging p99 SLA violations strictly below health-blind", ok);
  check(blind.shed == 0 && blind.timed_out == 0 && blind.in_flight == 0 &&
            blind.offered == blind.completed_all,
        "health-blind arm loses zero requests (pays the crash in latency)", ok);
  check(full.shed == 0 && full.timed_out == 0 && full.in_flight == 0 &&
            full.offered == full.completed_all,
        "resilient arm loses zero requests", ok);
  check(full.faults_injected == 2 && full.recovered &&
            full.time_to_recover.value() > 0.0,
        "crash+recovery injected and fleet reports a recovery time", ok);
  return ok;
}

/// Acceptance (b): guardband recovery to the pre-fault operating point.
bool guardband_acceptance(const dc::FleetResult& faulted,
                          const dc::FleetResult& healthy,
                          const dc::Scenario& scenario) {
  bool ok = true;
  const int bound = guardband_bound(scenario.governor);
  const int errors = static_cast<int>(faulted.faults_injected) / 2;  // degrade+restore pairs
  check(!faulted.truncated && !healthy.truncated, "both runs complete untruncated", ok);
  check(faulted.guardband_epochs > 0, "error events engage the guardband", ok);
  check(faulted.guardband_epochs <= errors * bound,
        "guardband epochs within the analytic hold+relax bound", ok);
  const auto last_f = final_epochs(faulted);
  const auto last_h = final_epochs(healthy);
  bool back = !last_f.empty() && last_f.size() == last_h.size();
  for (const auto& [chip, e] : last_f) {
    back = back && e.margin == 0.0 &&
           (last_h.count(chip) != 0U &&
            e.decision.frequency == last_h.at(chip).decision.frequency);
  }
  check(back, "every chip ends at zero margin and its pre-fault frequency pin", ok);
  check(faulted.energy.value() > healthy.energy.value(),
        "guardband margin costs measurable energy vs the healthy run", ok);
  return ok;
}

int run_smoke() {
  bool ok = true;
  {
    dc::Scenario s = dc::Scenario::by_name("diurnal-chipfail");
    const auto sweep =
        dse::sweep_faults(s, dse::default_resilience_arms(s));
    ok = chipfail_acceptance(sweep) && ok;
  }
  {
    dc::Scenario s = dc::Scenario::by_name("ntc-guardband-web");
    dc::Scenario healthy = s;
    healthy.faults = fault::FaultConfig{};
    const auto faulted_r = dc::run_scenario(s);
    const auto healthy_r = dc::run_scenario(healthy);
    ok = guardband_acceptance(faulted_r, healthy_r, s) && ok;
    if (ok) {
      const double overhead = faulted_r.energy.value() - healthy_r.energy.value();
      std::cout << "SMOKE PASS: guardband " << faulted_r.guardband_epochs
                << " chip-epochs, energy overhead " << overhead * 1e3 << " mJ ("
                << overhead / healthy_r.energy.value() * 100.0 << "%), ttr "
                << in_us(faulted_r.time_to_recover) << " us\n";
    } else {
      std::cout << "SMOKE FAIL\n";
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  const bench::TelemetryOptions topts =
      bench::parse_telemetry(argc, argv, "diurnal-chipfail");
  if (topts.any()) return bench::run_telemetry(topts);

  bench::print_header(
      "Fig. 6 (fault tolerance) — availability under chip failures and "
      "guardband-degraded governors",
      "Pahlevan et al., DATE'16: many-chip NTC fleets as failure domains");

  bool accepted = true;

  // 1. Chip crash mid-diurnal-peak: the resilience-arm ladder.
  {
    dc::Scenario s = dc::Scenario::by_name("diurnal-chipfail");
    const auto sweep =
        dse::sweep_faults(s, dse::default_resilience_arms(s));
    print_fault_sweep(sweep, s);
    accepted = chipfail_acceptance(sweep) && accepted;
    std::cout << "\n";
  }

  // 2. Guardband recovery after correctable-error events on every chip.
  {
    dc::Scenario s = dc::Scenario::by_name("ntc-guardband-web");
    dc::Scenario healthy = s;
    healthy.faults = fault::FaultConfig{};
    const auto faulted_r = dc::run_scenario(s);
    const auto healthy_r = dc::run_scenario(healthy);
    print_guardband(faulted_r, healthy_r, s);
    accepted = guardband_acceptance(faulted_r, healthy_r, s) && accepted;
    std::cout << "\n";
  }

  // 3. Stochastic MTTF/MTTR soak: the crash scenario re-run under a
  //    renewal fault process instead of the scripted trace, at three
  //    seeds — availability metrics under "realistic" failure arrivals.
  {
    dc::Scenario s = dc::Scenario::by_name("diurnal-chipfail");
    s.faults.events.clear();
    s.faults.mtbf.enabled = true;
    s.faults.mtbf.mttf = Second{1.5e-3};
    s.faults.mtbf.mttr = Second{0.2e-3};
    s.faults.mtbf.horizon = Second{4e-3};
    std::cout << "Stochastic soak (MTTF 1.5ms, MTTR 0.2ms, full posture):\n";
    TextTable t({"seed", "faults", "p99 (us)", "viol", "lost", "redisp",
                 "goodput (r/s)", "recovered"});
    for (std::uint64_t seed : {27ULL, 99ULL, 1234ULL}) {
      dc::Scenario arm = s;
      arm.seed = seed;
      const auto r = dc::run_scenario(arm);
      t.add_row({std::to_string(seed) + bench::truncated_mark(r),
                 std::to_string(r.faults_injected), TextTable::num(in_us(r.p99), 1),
                 std::to_string(r.sla_violations),
                 std::to_string(r.shed + r.timed_out + r.in_flight),
                 std::to_string(r.redispatched), TextTable::num(r.goodput, 0),
                 r.recovered ? "yes" : "no"});
    }
    bench::print_table(t, "fig6_fault_tolerance_soak");
  }

  std::cout << (accepted ? "ACCEPTANCE PASS" : "ACCEPTANCE FAIL")
            << " (chipfail: resilient strictly fewer violations at zero loss; "
               "guardband: bounded recovery at measured overhead)\n";
  return accepted ? 0 : 1;
}
