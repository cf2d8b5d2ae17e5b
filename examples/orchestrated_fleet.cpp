// Fleet orchestration walkthrough (src/orch): autoscale a diurnal day,
// hold a fleet-level power cap, and route one arrival stream across an
// NTC group and a conventional bulk-28nm group.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/example_orchestrated_fleet
#include <iostream>

#include "ntserv/ntserv.hpp"

using namespace ntserv;

int main() {
  // 1. Autoscaling: the catalog's two-period diurnal day on four
  //    fixed-max chips. The autoscaler drains and parks chips through
  //    the trough (deep-idle sleep floor) and wakes them for the crest,
  //    paying a real wake latency. Compare against the same day on the
  //    same fleet with the autoscaler off.
  dc::Scenario diurnal = dc::Scenario::by_name("autoscale-diurnal-web");
  diurnal.tenants[0].requests = 800;  // one diurnal period: enough to park and recover
  dc::Scenario fixed = diurnal;
  fixed.orchestration.autoscaler.enabled = false;

  const auto scaled = dc::run_scenario(diurnal);
  const auto rigid = dc::run_scenario(fixed);
  std::cout << "Autoscaling the diurnal day (" << diurnal.servers << " chips):\n"
            << "  autoscaled: " << scaled.energy.value() * 1e3 << " mJ, p99 "
            << in_us(scaled.p99) << " us, " << scaled.autoscale_parks << " parks / "
            << scaled.autoscale_unparks << " unparks, parked "
            << scaled.parked_seconds.value() * 1e3 << " ms, wake energy "
            << scaled.wake_energy.value() * 1e3 << " mJ\n"
            << "  fixed size: " << rigid.energy.value() * 1e3 << " mJ, p99 "
            << in_us(rigid.p99) << " us\n"
            << "  saving: " << (1.0 - scaled.energy.value() / rigid.energy.value()) * 100
            << "%\n\n";

  // 2. Power capping: a rack-level Watt bound split into per-chip
  //    budgets each epoch; every chip clamps its ondemand governor's
  //    decision to the largest curve point its budget affords. The
  //    realized fleet power never exceeds the cap at the epoch grid.
  const dc::Scenario capped_s = dc::Scenario::by_name("powercap-web");
  dc::Scenario uncapped_s = capped_s;
  uncapped_s.orchestration.cap.enabled = false;

  const auto capped = dc::run_scenario(capped_s);
  const auto uncapped = dc::run_scenario(uncapped_s);
  std::cout << "Fleet power cap (" << capped.fleet_cap.value() << " W over "
            << capped_s.servers << " chips):\n"
            << "  capped:   peak " << capped.peak_epoch_power.value() << " W, "
            << capped.cap_clamp_epochs << " clamped chip-epochs, "
            << capped.cap_violation_epochs << " violations, p99 " << in_us(capped.p99)
            << " us\n"
            << "  uncapped: peak " << uncapped.peak_epoch_power.value() << " W, p99 "
            << in_us(uncapped.p99) << " us\n\n";

  // 3. Multi-fleet routing: an interactive diurnal tenant plus a batch
  //    tenant over an fdsoi28 NTC group and a bulk28 conventional
  //    group. Off-peak, everything consolidates onto NTC; at peak the
  //    latency-critical stream steers to the conventional group.
  const auto routed =
      dc::run_scenario(dc::Scenario::by_name("multifleet-ntc-conv"));
  std::cout << "NTC vs conventional routing:\n";
  for (std::size_t g = 0; g < routed.group_names.size(); ++g) {
    std::cout << "  group '" << routed.group_names[g]
              << "': " << routed.group_dispatches[g] << " dispatches, "
              << routed.group_energy[g].value() * 1e3 << " mJ\n";
  }
  std::uint64_t offpeak_ntc = 0, offpeak_total = 0;
  for (const auto& e : routed.router_epochs) {
    if (!e.offpeak) continue;
    offpeak_ntc += e.routed[0];
    for (const auto n : e.routed) offpeak_total += n;
  }
  std::cout << "  off-peak consolidation: " << offpeak_ntc << " of " << offpeak_total
            << " off-peak dispatches on the NTC group\n\n";

  // 4. Provisioning: how many chips does the p99 bound need, with and
  //    without autoscaling? (dse::sweep_provisioning fans the grid out
  //    over NTSERV_THREADS workers, bit-identical for any width.)
  std::vector<dse::ProvisioningArm> arms(2);
  arms[0].label = "fixed";
  arms[1].label = "autoscaled";
  arms[1].orchestration = diurnal.orchestration;
  const auto sweep =
      dse::sweep_provisioning(diurnal, {2, 3, 4}, arms, microseconds(100.0));
  std::cout << "Provisioning for a 100 us p99 bound:\n";
  for (std::size_t a = 0; a < sweep.arm_labels.size(); ++a) {
    std::cout << "  " << sweep.arm_labels[a] << ": min chips " << sweep.min_chips(a)
              << "\n";
  }
  return 0;
}
