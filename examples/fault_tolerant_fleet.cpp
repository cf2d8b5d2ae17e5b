// Fault-tolerance tour: inject a chip crash into a serving fleet
// (src/fault), watch the health-blind fleet pay for it in tail latency,
// then switch on the resilience ladder — failover dispatch, per-request
// timeouts with retry, hedged requests — and finish with the guardband
// governor degrading gracefully after correctable-error events.
//
// Every run below shares one deterministic fault trace and one arrival
// stream (same scenario seed), so the differences between steps are
// purely the resilience machinery.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_fault_tolerant_fleet
#include <iostream>

#include "ntserv/ntserv.hpp"

using namespace ntserv;

namespace {

void report(const char* tag, const dc::FleetResult& r) {
  std::cout << "  " << tag << ": p99 " << in_us(r.p99) << " us, SLA violations "
            << r.sla_violations << " (" << r.degraded_sla_violations
            << " inside fault windows), lost "
            << r.shed + r.timed_out + r.in_flight << ", re-dispatched "
            << r.redispatched << ", hedged " << r.hedged << " (" << r.hedge_wins
            << " wins), goodput " << r.goodput / 1e3 << " kreq/s"
            << (r.recovered
                    ? ", recovered in " + std::to_string(in_us(r.time_to_recover)) + " us"
                    : "")
            << "\n";
}

}  // namespace

int main() {
  // 1. The catalog crash scenario: a 3-chip Web Serving fleet on a diurnal
  //    wave; chip 1 fail-stops at t=0.6ms and comes back at t=1.0ms.
  dc::Scenario scenario = dc::Scenario::by_name("diurnal-chipfail");
  std::cout << "Scenario: " << scenario.name << " — " << scenario.description << "\n"
            << "  fault trace:";
  for (const auto& e : scenario.faults.events) {
    std::cout << " [t=" << e.at_s * 1e6 << "us chip " << e.chip << " "
              << fault::to_string(e.kind) << "]";
  }
  std::cout << "\n\n";

  // 2. Healthy reference: the same fleet with the fault trace stripped.
  dc::Scenario healthy = scenario;
  healthy.faults = fault::FaultConfig{};
  healthy.resilience = dc::ResilienceConfig{};
  std::cout << "Healthy reference (no faults, no resilience):\n";
  report("healthy", dc::run_scenario(healthy));

  // 3. Health-blind crash: no failover — the victim restarts its in-flight
  //    requests locally when it recovers and its queue waits out the
  //    outage. Nothing is lost, but the stranded requests blow the tail.
  dc::Scenario blind = scenario;
  blind.resilience = dc::ResilienceConfig{};
  std::cout << "\nCrash with no resilience (outage paid in latency):\n";
  report("health-blind", dc::run_scenario(blind));

  // 4. Failover dispatch: the crash drains the victim's queue and
  //    re-dispatches its in-flight losses onto healthy chips; the
  //    balancer steers around the down chip until it recovers.
  dc::Scenario failover = scenario;
  failover.resilience = dc::ResilienceConfig{};
  failover.resilience.failover = true;
  std::cout << "\nFailover dispatch (drain + re-dispatch, health-aware steering):\n";
  report("failover", dc::run_scenario(failover));

  // 5. Timeouts and hedging on top: every attempt carries a deadline
  //    (timed-out copies retry through admission back-off), and a request
  //    still waiting past ~3x the running measured p95 places one hedge
  //    copy on another healthy chip — first completion wins.
  std::cout << "\nFull posture (failover + timeout/retry + hedged requests):\n";
  report("full", dc::run_scenario(scenario));

  // 6. Guardband-degraded governors: correctable-error events make each
  //    chip's NTC-boost governor drop its FBB overdrive and run with a
  //    raised voltage margin (charged through the power model), relaxing
  //    back to nominal over rate-limited epochs.
  dc::Scenario gb = dc::Scenario::by_name("ntc-guardband-web");
  dc::Scenario gb_healthy = gb;
  gb_healthy.faults = fault::FaultConfig{};
  const auto faulted = dc::run_scenario(gb);
  const auto clean = dc::run_scenario(gb_healthy);
  std::cout << "\nGuardband governor (" << gb.name << "):\n"
            << "  error events: " << faulted.faults_injected
            << ", guardband chip-epochs: " << faulted.guardband_epochs
            << " (bound: hold " << ctrl::kGuardbandHoldEpochs
            << " + margin " << gb.governor.guardband_margin << " / step "
            << ctrl::kGuardbandRelaxStep << " per chip)\n"
            << "  energy: " << faulted.energy.value() * 1e3 << " mJ vs "
            << clean.energy.value() * 1e3 << " mJ healthy (overhead "
            << (faulted.energy.value() - clean.energy.value()) * 1e3 << " mJ)\n"
            << "  p99: " << in_us(faulted.p99) << " us vs " << in_us(clean.p99)
            << " us healthy, recovered in " << in_us(faulted.time_to_recover)
            << " us\n";
  return 0;
}
