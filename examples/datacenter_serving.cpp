// Datacenter serving tour: run one catalog scenario through the
// request-level serving layer (src/dc), read the measured tail latencies,
// compare load-balancing policies, and account fleet energy with the
// power-management hooks.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_datacenter_serving
#include <iostream>

#include "ntserv/ntserv.hpp"

using namespace ntserv;

int main() {
  // 1. Pick a scenario from the catalog (docs/datacenter.md lists all).
  dc::Scenario scenario = dc::Scenario::by_name("websearch-poisson-light");
  // Trim the request budget so the tour runs in seconds.
  dc::TenantSpec& traffic = scenario.tenants[0];
  traffic.requests = 150;
  traffic.warmup_requests = 20;

  std::cout << "Scenario: " << scenario.name << " — " << scenario.description << "\n"
            << "  arrivals: " << to_string(traffic.arrival.kind) << " @ "
            << traffic.arrival.rate / 1e3 << " kreq/s, "
            << scenario.servers << " servers, "
            << traffic.user_instructions_per_request << " user instructions/request\n\n";

  // 2. Run it at two frequencies and watch the measured tail move.
  for (double g : {2.0, 1.0}) {
    const auto r = dc::run_scenario(scenario, ghz(g));
    std::cout << "@ " << g << " GHz: p50 " << in_us(r.p50) << " us, p95 "
              << in_us(r.p95) << " us, p99 " << in_us(r.p99) << " us, mean wait "
              << in_us(r.mean_wait) << " us, utilization " << r.utilization * 100
              << "%\n";
  }

  // 3. Feed the measured tail into the QoS anchor, exactly as the paper
  //    anchors its hardware baseline.
  const auto target = qos::QosTarget::for_workload(scenario.profile.name);
  const auto base = dc::run_scenario(scenario, ghz(2.0));
  const auto low = dc::run_scenario(scenario, ghz(1.0));
  std::cout << "\nMeasured normalized p99 @ 1 GHz: "
            << qos::measured_normalized_latency(target, low.p99, base.p99)
            << " (<= 1 meets the " << in_ms(target.qos_limit) << " ms QoS limit)\n";

  // 4. Policy face-off on a 4-server fleet at moderate load: power-aware
  //    packing concentrates work so idle servers can sleep.
  std::cout << "\nPolicy comparison (4 servers, ~15% load, 2 GHz):\n";
  const power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  const pm::UipsCurve curve{{ghz(0.5), 1.0e10}, {ghz(1.0), 1.9e10}, {ghz(2.0), 3.0e10}};
  const pm::PowerManager manager{platform, curve};
  for (auto policy : {dc::BalancePolicy::kRoundRobin, dc::BalancePolicy::kLeastLoaded,
                      dc::BalancePolicy::kPowerAware}) {
    dc::Scenario s = dc::Scenario::by_name("mediastreaming-powercap");
    s.policy = policy;
    s.tenants[0].requests = 150;
    s.tenants[0].warmup_requests = 20;
    const auto r = dc::run_scenario(s, ghz(2.0));
    std::cout << "  " << to_string(policy) << ": p99 " << in_us(r.p99)
              << " us, server active fractions [";
    for (std::size_t i = 0; i < r.server_active_fraction.size(); ++i) {
      std::cout << (i ? " " : "") << r.server_active_fraction[i];
    }
    std::cout << "], fleet energy "
              << dc::fleet_energy(r, manager, ghz(2.0)).value() << " J\n";
  }

  // 5. Close the loop (src/ctrl): run a short diurnal scenario under the
  //    NTC-boost governor — pinned at the efficiency optimum, FBB-boosted
  //    on measured tail pressure — against the unmanaged baseline.
  std::cout << "\nClosed-loop governors on a short diurnal run:\n";
  dc::Scenario diurnal = dc::Scenario::by_name("webserving-diurnal-ntcboost");
  diurnal.tenants[0].requests = 250;
  diurnal.tenants[0].warmup_requests = 25;
  for (auto kind : {ctrl::GovernorKind::kFixedMax, ctrl::GovernorKind::kNtcBoost}) {
    dc::Scenario s = diurnal;
    s.governor.kind = kind;
    const auto r = dc::run_scenario(s, ghz(2.0));
    std::cout << "  " << to_string(kind) << ": p99 " << in_us(r.p99) << " us, energy "
              << r.energy.value() * 1e3 << " mJ, avg f " << r.avg_frequency_ghz
              << " GHz, " << r.transitions << " transitions, "
              << r.qos_violation_epochs << " QoS violations, shed rate " << r.shed_rate
              << "\n";
  }
  return 0;
}
