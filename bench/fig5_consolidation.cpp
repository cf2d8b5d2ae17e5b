// E5 — Fig. 5 (consolidation): multi-cluster chip servers, cross-scenario
// consolidation economics, and governor-aware dispatch.
//
// The paper's scale-out argument (Sec. II-B) puts many near-threshold
// clusters behind one server chip, and Sec. V-C argues consolidation of
// co-located services is where the energy-proportionality win compounds.
// This driver measures both at the request level on the chip-based fleet
// (dc::ChipServer):
//
//   1. Consolidation economics — two antiphase diurnal tenants co-located
//      on shared chips versus each tenant on its own dedicated fleet, at
//      *equal per-tenant p99 bounds*: the consolidated fleet needs fewer
//      chips (statistical multiplexing of the crests) and less energy.
//   2. Governor-aware dispatch — per-chip governors drift apart under
//      asymmetric load; the kGovernorAware balancer peeks at each chip's
//      pending epoch decision and steers latency-critical requests away
//      from chips mid-transition or about to descend, against the
//      least-loaded baseline on the diurnal NTC-boost scenario and the
//      interactive+batch consolidation scenario.
//
// `--smoke` runs trimmed versions of both with asserted bounds and a
// non-zero exit on failure (the CI hook): consolidation must use fewer
// chips than the dedicated fleets at equal per-tenant p99 bounds, and the
// governor-aware balancer's non-transition QoS violations must not exceed
// the least-loaded baseline's.
#include <cstring>

#include "bench_common.hpp"

using namespace ntserv;

namespace {

/// Run one scenario per balance policy in parallel (NTSERV_THREADS).
std::vector<dc::FleetResult> run_policies(const dc::Scenario& scenario,
                                          const std::vector<dc::BalancePolicy>& policies) {
  std::vector<dc::Scenario> runs(policies.size(), scenario);
  for (std::size_t i = 0; i < policies.size(); ++i) runs[i].policy = policies[i];
  return dc::run_scenarios(runs);
}

void print_consolidation(const dse::ConsolidationSweep& sweep,
                         const dc::Scenario& scenario) {
  std::cout << "Scenario " << sweep.scenario << " (" << scenario.description << "):\n";
  TextTable t({"fleet", "chips", "tenant", "p99 (us)", "bound (us)", "meets",
               "shed", "energy (mJ)"});
  auto add_rows = [&](const std::string& fleet, int chips, const dc::FleetResult& r,
                      const dse::ConsolidationSweep& sw) {
    for (const auto& tn : r.tenants) {
      // meets() resolves slices by name, so the sweep-table index drives
      // both the bound column and the verdict.
      std::size_t bound_idx = 0;
      for (std::size_t k = 0; k < sw.tenant_names.size(); ++k) {
        if (sw.tenant_names[k] == tn.name) bound_idx = k;
      }
      t.add_row({fleet + bench::truncated_mark(r), std::to_string(chips),
                 tn.name,
                 TextTable::num(in_us(tn.p99), 1),
                 TextTable::num(in_us(sw.tenant_bounds[bound_idx]), 1),
                 sw.meets(r, bound_idx) ? "yes" : "no", std::to_string(tn.shed),
                 TextTable::num(tn.energy.value() * 1e3, 2)});
    }
  };
  for (const auto& p : sweep.points) {
    add_rows("consolidated", p.chips, p.consolidated, sweep);
    for (std::size_t d = 0; d < p.dedicated.size(); ++d) {
      add_rows("dedicated/" + sweep.tenant_names[d], p.chips, p.dedicated[d], sweep);
    }
  }
  bench::print_table(t, "fig5_consolidation_" + sweep.scenario);
}

void print_policies(const std::string& tag, const std::vector<dc::BalancePolicy>& policies,
                    const std::vector<dc::FleetResult>& results) {
  TextTable t({"policy", "p99 (us)", "mean (us)", "viol", "trans", "steered",
               "shed", "energy (mJ)", "util"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& r = results[i];
    t.add_row({std::string(to_string(policies[i])) + bench::truncated_mark(r),
               TextTable::num(in_us(r.p99), 1),
               TextTable::num(in_us(r.mean_latency), 1),
               std::to_string(r.qos_violation_epochs), std::to_string(r.transitions),
               std::to_string(r.steered), std::to_string(r.shed),
               TextTable::num(r.energy.value() * 1e3, 2),
               TextTable::num(r.utilization, 3)});
  }
  bench::print_table(t, tag);
}

bool check(bool cond, const char* what) {
  std::cout << (cond ? "PASS" : "FAIL") << ": " << what << "\n";
  return cond;
}

int run_smoke() {
  bool ok = true;

  // 1. Consolidation economics at smoke scale: one shared chip must carry
  //    both antiphase tenants inside their p99 bounds — the dedicated
  //    fleets need one chip *each*, so consolidation halves the fleet.
  {
    dc::Scenario s = dc::Scenario::by_name("consolidated-antiphase-search");
    for (auto& tenant : s.tenants) tenant.requests = 300;
    const auto sweep = dse::sweep_consolidation(s, {1});
    const auto& point = sweep.points.front();
    ok &= check(sweep.meets(point.consolidated, 0) && sweep.meets(point.consolidated, 1),
                "one shared chip serves both antiphase tenants within their p99 bounds");
    ok &= check(sweep.meets(point.dedicated[0], 0) && sweep.meets(point.dedicated[1], 1),
                "each dedicated fleet needs (at least) one chip of its own");
    const int consolidated = sweep.min_consolidated_chips();
    ok &= check(consolidated == 1 && consolidated < 2,
                "consolidation uses fewer chips than the dedicated fleets (1 < 1+1)");
    const double ded_energy = point.dedicated[0].energy.value() +
                              point.dedicated[1].energy.value();
    ok &= check(point.consolidated.energy.value() < ded_energy,
                "consolidated fleet energy below the dedicated fleets' sum");
  }

  // 2. Governor-aware dispatch on the diurnal NTC-boost scenario: at
  //    worst the violation count of the least-loaded baseline.
  {
    dc::Scenario s = dc::Scenario::by_name("webserving-diurnal-ntcboost");
    s.tenants[0].requests = 300;
    s.tenants[0].warmup_requests = 30;
    const std::vector<dc::BalancePolicy> policies{dc::BalancePolicy::kLeastLoaded,
                                                  dc::BalancePolicy::kGovernorAware};
    const auto results = run_policies(s, policies);
    const auto& ll = results[0];
    const auto& ga = results[1];
    ok &= check(!ll.truncated && !ga.truncated, "diurnal policy face-off completes");
    ok &= check(ga.qos_violation_epochs <= ll.qos_violation_epochs,
                "governor-aware non-transition QoS violations <= least-loaded");
  }

  // 3. Steering is live: the interactive+batch consolidation scenario
  //    must actually redirect latency-critical work off descending chips.
  {
    dc::Scenario s = dc::Scenario::by_name("consolidated-web-batch");
    s.tenants[0].requests = 250;
    s.tenants[1].requests = 150;
    const auto r = dc::run_scenario(s);
    ok &= check(!r.truncated && r.steered > 0,
                "governor-aware balancer steers around pending descents");
  }

  std::cout << (ok ? "SMOKE PASS" : "SMOKE FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  const bench::TelemetryOptions topts =
      bench::parse_telemetry(argc, argv, "consolidated-web-batch");
  if (topts.any()) return bench::run_telemetry(topts);

  bench::print_header(
      "Fig. 5 (consolidation) — chip servers, consolidation economics, "
      "governor-aware dispatch",
      "Pahlevan et al., DATE'16, Sec. II-B scale-out chips + Sec. V-C consolidation");

  bool accepted = true;

  // 1. Consolidation economics: antiphase diurnal tenants, shared vs
  //    dedicated chips at equal per-tenant p99 bounds.
  {
    const dc::Scenario s = dc::Scenario::by_name("consolidated-antiphase-search");
    const auto sweep = dse::sweep_consolidation(s, {1, 2});
    print_consolidation(sweep, s);

    const int consolidated = sweep.min_consolidated_chips();
    const int ded_day = sweep.min_dedicated_chips(0);
    const int ded_night = sweep.min_dedicated_chips(1);
    const bool fewer = consolidated > 0 && ded_day > 0 && ded_night > 0 &&
                       consolidated < ded_day + ded_night;
    std::cout << "Minimum chips at equal per-tenant p99 bounds: consolidated "
              << consolidated << " vs dedicated " << ded_day << " + " << ded_night
              << " [" << (fewer ? "PASS" : "FAIL") << "]\n";
    const auto& point = sweep.points.front();
    const double ded_energy = point.dedicated[0].energy.value() +
                              point.dedicated[1].energy.value();
    std::cout << "Energy at 1 chip: consolidated "
              << point.consolidated.energy.value() * 1e3 << " mJ vs dedicated sum "
              << ded_energy * 1e3 << " mJ ("
              << point.consolidated.energy.value() / ded_energy << "x)\n\n";
    accepted = fewer && accepted;
  }

  // 2. Governor-aware vs least-loaded (vs round-robin) on the diurnal
  //    NTC-boost scenario: per-chip boosts/releases are the descents the
  //    balancer anticipates.
  {
    dc::Scenario s = dc::Scenario::by_name("webserving-diurnal-ntcboost");
    const std::vector<dc::BalancePolicy> policies{dc::BalancePolicy::kRoundRobin,
                                                  dc::BalancePolicy::kLeastLoaded,
                                                  dc::BalancePolicy::kGovernorAware};
    const auto results = run_policies(s, policies);
    std::cout << "Scenario " << s.name << " (" << s.description << "), policy face-off:\n";
    print_policies("fig5_policies_" + s.name, policies, results);
    const auto& ll = results[1];
    const auto& ga = results[2];
    const bool viol_ok = ga.qos_violation_epochs <= ll.qos_violation_epochs;
    std::cout << "Acceptance: governor-aware violations " << ga.qos_violation_epochs
              << " <= least-loaded " << ll.qos_violation_epochs << " ["
              << (viol_ok ? "PASS" : "FAIL") << "]\n\n";
    accepted = viol_ok && accepted;
  }

  // 3. Interactive + batch consolidation under per-chip ondemand DVFS:
  //    steering keeps the interactive tail clear of descending chips
  //    while batch work soaks them.
  {
    dc::Scenario s = dc::Scenario::by_name("consolidated-web-batch");
    const std::vector<dc::BalancePolicy> policies{dc::BalancePolicy::kLeastLoaded,
                                                  dc::BalancePolicy::kGovernorAware};
    const auto results = run_policies(s, policies);
    std::cout << "Scenario " << s.name << " (" << s.description << "):\n";
    print_policies("fig5_policies_" + s.name, policies, results);
    TextTable t({"policy", "tenant", "p99 (us)", "mean (us)", "sla viol", "share",
                 "energy (mJ)"});
    for (std::size_t i = 0; i < policies.size(); ++i) {
      for (const auto& tn : results[i].tenants) {
        t.add_row({to_string(policies[i]), tn.name, TextTable::num(in_us(tn.p99), 1),
                   TextTable::num(in_us(tn.mean_latency), 1),
                   std::to_string(tn.sla_violations), TextTable::num(tn.busy_share, 3),
                   TextTable::num(tn.energy.value() * 1e3, 2)});
      }
    }
    bench::print_table(t, "fig5_tenants_" + s.name);
  }

  std::cout << (accepted ? "ACCEPTANCE PASS" : "ACCEPTANCE FAIL")
            << " (consolidation beats dedicated chips at equal per-tenant bounds; "
               "governor-aware dispatch at most least-loaded's violations)\n";
  return accepted ? 0 : 1;
}
