// Fig. 7 (orchestration): the fleet orchestration layer (src/orch) over
// the closed-loop serving fleet — autoscaling against a diurnal day,
// a fleet-level power cap shared by per-chip governors, and tech routing
// between an NTC group and a conventional bulk-28nm group.
//
// The paper sizes its NTC fleet statically for the peak; this driver
// quantifies what the orchestration layer adds on top:
//  (a) energy an autoscaler saves at equal p99 by parking the diurnal
//      trough at the platform's deep-idle floor (vs a fixed-size fleet
//      of never-sleeping fixed-max chips);
//  (b) the tail cost of a binding rack cap, with the guarantee that the
//      realized fleet power never exceeds the cap on the epoch grid;
//  (c) the off-peak consolidation of a routed NTC+conventional fleet
//      onto the NTC group, with latency-critical work steered to the
//      conventional group at peak;
//  (d) a provisioning sweep: chips a p99 bound needs, with and without
//      autoscaling.
//
// Usage: fig7_orchestration [--smoke]
//   --smoke runs only the acceptance checks (CI gate), exit 0/1.

#include <cstring>
#include <iostream>

#include "bench_common.hpp"

using namespace ntserv;

namespace {

/// The equal-QoS bound both autoscale arms are held to (well above the
/// healthy fixed fleet's tail, wide enough to absorb wake stalls).
constexpr double kAutoscaleP99BoundUs = 100.0;

bool check(bool cond, const char* what, bool& ok) {
  std::cout << (cond ? "PASS" : "FAIL") << ": " << what << "\n";
  ok = ok && cond;
  return cond;
}

/// A run that lost nothing: untruncated, no shed/timeouts/stranded work.
bool lossless(const dc::FleetResult& r) {
  return !r.truncated && r.shed == 0 && r.timed_out == 0 && r.in_flight == 0;
}

struct AutoscalePair {
  dc::FleetResult scaled;
  dc::FleetResult fixed;
};

AutoscalePair run_autoscale() {
  const dc::Scenario s = dc::Scenario::by_name("autoscale-diurnal-web");
  dc::Scenario fixed = s;
  fixed.orchestration.autoscaler.enabled = false;
  // Same seed, same arrivals: the only difference is the autoscaler.
  return {dc::run_scenario(s), dc::run_scenario(fixed)};
}

/// Acceptance (a): autoscaling the diurnal scenario saves >= 15% energy
/// vs the fixed-size fleet while both meet the same p99 bound.
bool autoscale_acceptance(const AutoscalePair& p) {
  bool ok = true;
  check(lossless(p.scaled) && lossless(p.fixed), "both arms complete losslessly", ok);
  check(in_us(p.scaled.p99) <= kAutoscaleP99BoundUs &&
            in_us(p.fixed.p99) <= kAutoscaleP99BoundUs,
        "both arms meet the shared p99 bound (equal QoS)", ok);
  check(p.scaled.autoscale_parks > 0 && p.scaled.autoscale_unparks > 0,
        "the autoscaler parks through the trough and wakes for the crest", ok);
  check(p.scaled.parked_seconds.value() > 0.0 && p.fixed.parked_seconds.value() == 0.0,
        "parked time accrues only under the autoscaler", ok);
  const double saving = 1.0 - p.scaled.energy.value() / p.fixed.energy.value();
  check(saving >= 0.15, "autoscaling saves >= 15% fleet energy at equal QoS", ok);
  return ok;
}

struct CapPair {
  dc::FleetResult capped;
  dc::FleetResult uncapped;
};

CapPair run_cap() {
  const dc::Scenario s = dc::Scenario::by_name("powercap-web");
  dc::Scenario uncapped = s;
  uncapped.orchestration.cap.enabled = false;
  return {dc::run_scenario(s), dc::run_scenario(uncapped)};
}

/// Acceptance (b): the cap binds (it clamps governors, and the uncapped
/// fleet would exceed it) yet is never violated on the epoch grid.
bool cap_acceptance(const CapPair& p) {
  bool ok = true;
  check(lossless(p.capped) && lossless(p.uncapped), "both arms complete losslessly", ok);
  check(p.capped.cap_violation_epochs == 0 &&
            p.capped.peak_epoch_power.value() <= p.capped.fleet_cap.value() * (1.0 + 1e-9),
        "realized fleet power never exceeds the cap at the epoch grid", ok);
  check(p.capped.cap_clamp_epochs > 0, "the cap visibly clamps governor decisions", ok);
  check(p.uncapped.peak_epoch_power.value() > p.capped.fleet_cap.value(),
        "the uncapped fleet would exceed the cap (the cap binds)", ok);
  const double cost = in_us(p.capped.p99) - in_us(p.uncapped.p99);
  std::cout << "  cap p99 cost: " << cost << " us (capped " << in_us(p.capped.p99)
            << " us vs uncapped " << in_us(p.uncapped.p99) << " us)\n";
  return ok;
}

struct RouteTally {
  std::uint64_t offpeak_epochs = 0, peak_epochs = 0;
  std::uint64_t offpeak_ntc = 0, offpeak_conv = 0;
  std::uint64_t peak_ntc = 0, peak_conv = 0;
};

RouteTally tally_routes(const dc::FleetResult& r) {
  RouteTally t;
  for (const auto& e : r.router_epochs) {
    if (e.routed.size() < 2) continue;
    if (e.offpeak) {
      ++t.offpeak_epochs;
      t.offpeak_ntc += e.routed[0];
      t.offpeak_conv += e.routed[1];
    } else {
      ++t.peak_epochs;
      t.peak_ntc += e.routed[0];
      t.peak_conv += e.routed[1];
    }
  }
  return t;
}

/// Acceptance (c): off-peak, dispatch consolidates onto the NTC group;
/// at peak, the conventional group carries the latency-critical stream.
bool router_acceptance(const dc::FleetResult& r) {
  bool ok = true;
  const RouteTally t = tally_routes(r);
  check(lossless(r), "the routed run completes losslessly", ok);
  check(t.offpeak_epochs > 0 && t.peak_epochs > 0,
        "the diurnal day produces both off-peak and peak epochs", ok);
  check(t.offpeak_ntc > t.offpeak_conv,
        "off-peak load consolidates onto the NTC group", ok);
  check(t.peak_conv > 0, "at peak the conventional group takes dispatches", ok);
  check(r.group_dispatches.size() == 2 &&
            r.group_dispatches[0] + r.group_dispatches[1] == r.admitted,
        "per-group dispatch ledger tiles the admitted count", ok);
  return ok;
}

int run_smoke() {
  bool ok = true;
  std::cout << "[autoscale]\n";
  const AutoscalePair as = run_autoscale();
  ok = autoscale_acceptance(as) && ok;
  std::cout << "[power cap]\n";
  const CapPair cap = run_cap();
  ok = cap_acceptance(cap) && ok;
  std::cout << "[multi-fleet routing]\n";
  const auto routed = dc::run_scenario(dc::Scenario::by_name("multifleet-ntc-conv"));
  ok = router_acceptance(routed) && ok;
  if (ok) {
    const double saving = 1.0 - as.scaled.energy.value() / as.fixed.energy.value();
    std::cout << "SMOKE PASS: autoscale saves " << saving * 100.0 << "% ("
              << as.scaled.autoscale_parks << " parks), cap clamps "
              << cap.capped.cap_clamp_epochs << " chip-epochs with 0 violations, "
              << "router off-peak NTC share "
              << tally_routes(routed).offpeak_ntc << " dispatches\n";
  } else {
    std::cout << "SMOKE FAIL\n";
  }
  return ok ? 0 : 1;
}

void print_autoscale(const AutoscalePair& p) {
  std::cout << "Autoscaling the diurnal day (autoscale-diurnal-web, fixed-max chips):\n";
  TextTable t({"arm", "energy (mJ)", "p99 (us)", "parks", "unparks", "drains",
               "parked (ms)", "wake E (mJ)", "avg f (GHz)"});
  const auto add = [&](const char* label, const dc::FleetResult& r) {
    t.add_row({std::string(label) + bench::truncated_mark(r),
               TextTable::num(r.energy.value() * 1e3, 2), TextTable::num(in_us(r.p99), 1),
               std::to_string(r.autoscale_parks), std::to_string(r.autoscale_unparks),
               std::to_string(r.autoscale_drains),
               TextTable::num(r.parked_seconds.value() * 1e3, 3),
               TextTable::num(r.wake_energy.value() * 1e3, 3),
               TextTable::num(r.avg_frequency_ghz, 3)});
  };
  add("autoscaled", p.scaled);
  add("fixed-size", p.fixed);
  bench::print_table(t, "fig7_autoscale");
  const double saving = 1.0 - p.scaled.energy.value() / p.fixed.energy.value();
  std::cout << "Autoscaling saves " << saving * 100.0 << "% fleet energy at equal QoS (bound "
            << kAutoscaleP99BoundUs << " us)\n\n";
}

void print_cap(const CapPair& p) {
  std::cout << "Fleet power cap (powercap-web, ondemand chips):\n";
  TextTable t({"arm", "cap (W)", "peak power (W)", "clamp epochs", "violations",
               "p99 (us)", "energy (mJ)", "avg f (GHz)"});
  const auto add = [&](const char* label, const dc::FleetResult& r) {
    t.add_row({std::string(label) + bench::truncated_mark(r),
               r.fleet_cap.value() > 0.0 ? TextTable::num(r.fleet_cap.value(), 1) : "-",
               TextTable::num(r.peak_epoch_power.value(), 1),
               std::to_string(r.cap_clamp_epochs), std::to_string(r.cap_violation_epochs),
               TextTable::num(in_us(r.p99), 1), TextTable::num(r.energy.value() * 1e3, 2),
               TextTable::num(r.avg_frequency_ghz, 3)});
  };
  add("capped", p.capped);
  add("uncapped", p.uncapped);
  bench::print_table(t, "fig7_powercap");
  std::cout << "Tail cost of the cap: " << in_us(p.capped.p99) - in_us(p.uncapped.p99)
            << " us of p99\n\n";
}

void print_router(const dc::FleetResult& r) {
  std::cout << "NTC vs conventional routing (multifleet-ntc-conv):\n";
  const RouteTally tt = tally_routes(r);
  TextTable t({"phase", "epochs", "-> ntc", "-> conv"});
  t.add_row({"off-peak", std::to_string(tt.offpeak_epochs), std::to_string(tt.offpeak_ntc),
             std::to_string(tt.offpeak_conv)});
  t.add_row({"peak", std::to_string(tt.peak_epochs), std::to_string(tt.peak_ntc),
             std::to_string(tt.peak_conv)});
  bench::print_table(t, "fig7_routing_phases");
  if (r.has_routing()) {
    TextTable g({"group", "dispatches", "energy (mJ)"});
    for (std::size_t i = 0; i < r.group_names.size(); ++i) {
      g.add_row({r.group_names[i], std::to_string(r.group_dispatches[i]),
                 TextTable::num(r.group_energy[i].value() * 1e3, 2)});
    }
    bench::print_table(g, "fig7_routing_groups");
  }
  if (!r.tenants.empty()) {
    std::cout << "Interactive tenant p99: " << in_us(r.tenants[0].p99) << " us\n";
  }
  std::cout << "\n";
}

void print_provisioning() {
  // Chips-per-bound, with and without the autoscaler, on the diurnal
  // scenario. Traffic is held constant while the fleet size sweeps.
  const dc::Scenario s = dc::Scenario::by_name("autoscale-diurnal-web");
  std::vector<dse::ProvisioningArm> arms(2);
  arms[0].label = "fixed";
  arms[1].label = "autoscaled";
  arms[1].orchestration = s.orchestration;
  const auto sweep = dse::sweep_provisioning(s, {2, 3, 4, 5}, arms,
                                             microseconds(kAutoscaleP99BoundUs));
  std::cout << "Provisioning sweep (p99 bound " << kAutoscaleP99BoundUs << " us):\n";
  TextTable t({"chips", "arm", "p99 (us)", "energy (mJ)", "parked (ms)", "meets"});
  for (const auto& p : sweep.points) {
    for (std::size_t a = 0; a < sweep.arm_labels.size(); ++a) {
      const auto& r = p.results[a];
      t.add_row({std::to_string(p.chips), sweep.arm_labels[a] + bench::truncated_mark(r),
                 TextTable::num(in_us(r.p99), 1), TextTable::num(r.energy.value() * 1e3, 2),
                 TextTable::num(r.parked_seconds.value() * 1e3, 3),
                 sweep.meets(r) ? "yes" : "no"});
    }
  }
  bench::print_table(t, "fig7_provisioning");
  std::cout << "Min chips meeting the bound: fixed " << sweep.min_chips(0)
            << ", autoscaled " << sweep.min_chips(1) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  const bench::TelemetryOptions topts =
      bench::parse_telemetry(argc, argv, "autoscale-diurnal-web");
  if (topts.any()) return bench::run_telemetry(topts);

  bench::print_header(
      "Fig. 7 (orchestration) — autoscaling, fleet power capping, and "
      "NTC-vs-conventional tech routing",
      "Pahlevan et al., DATE'16: elastic operation of the scale-out NTC fleet");

  bool accepted = true;

  const AutoscalePair as = run_autoscale();
  print_autoscale(as);
  accepted = autoscale_acceptance(as) && accepted;
  std::cout << "\n";

  const CapPair cap = run_cap();
  print_cap(cap);
  accepted = cap_acceptance(cap) && accepted;
  std::cout << "\n";

  const auto routed = dc::run_scenario(dc::Scenario::by_name("multifleet-ntc-conv"));
  print_router(routed);
  accepted = router_acceptance(routed) && accepted;
  std::cout << "\n";

  print_provisioning();

  std::cout << (accepted ? "ACCEPTANCE PASS" : "ACCEPTANCE FAIL")
            << " (autoscale >= 15% energy at equal QoS; cap binds but is never "
               "violated; off-peak consolidates onto the NTC group)\n";
  return accepted ? 0 : 1;
}
