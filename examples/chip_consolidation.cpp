// Walkthrough: multi-cluster chip servers, cross-scenario consolidation
// and governor-aware dispatch (the dc::ChipServer layer).
//
// Builds up the consolidation story in four steps:
//   1. shape a chip fleet (chips x clusters) and run a single tenant;
//   2. co-locate two antiphase diurnal tenants on one chip and read the
//      per-tenant slices out of FleetResult;
//   3. compare against the dedicated fleets at equal per-tenant p99
//      bounds with dse::sweep_consolidation;
//   4. turn on per-chip governors and watch the governor-aware balancer
//      steer latency-critical requests away from descending chips.
//
// Build & run:  ./build/example_chip_consolidation
#include <iostream>

#include "ntserv/ntserv.hpp"

using namespace ntserv;

namespace {

void print_tenants(const dc::FleetResult& r) {
  for (const auto& t : r.tenants) {
    std::cout << "    tenant " << t.name << ": completed " << t.completed
              << ", p99 " << in_us(t.p99) << " us, shed " << t.shed
              << ", busy share " << t.busy_share << ", energy "
              << t.energy.value() * 1e3 << " mJ\n";
  }
}

}  // namespace

int main() {
  std::cout << "== 1. A fleet of multi-cluster chips ==\n";
  // Two chips, two clusters each: 16 cores behind two queues. The chip is
  // the paper's scale-out unit — clusters are independent, but share the
  // chip's envelope and (under a governor) its voltage domain.
  dc::Scenario single = dc::Scenario::by_name("websearch-poisson-light");
  single.servers = 2;
  single.clusters_per_chip = 2;
  const auto base = dc::run_scenario(single);
  std::cout << "  " << single.name << " on 2x2-cluster chips: p99 "
            << in_us(base.p99) << " us, utilization " << base.utilization << "\n\n";

  std::cout << "== 2. Consolidating two scenarios onto one chip ==\n";
  // The registry's antiphase pair: a day-peaking and a night-peaking
  // diurnal tenant, co-located on a single 2-cluster chip under the
  // NTC-boost governor. FleetResult carries one TenantResult per tenant.
  const dc::Scenario pair = dc::Scenario::by_name("consolidated-antiphase-search");
  const auto consolidated = dc::run_scenario(pair);
  std::cout << "  " << pair.name << " (1 chip): fleet p99 " << in_us(consolidated.p99)
            << " us, energy " << consolidated.energy.value() * 1e3 << " mJ\n";
  print_tenants(consolidated);
  std::cout << "\n";

  std::cout << "== 3. Consolidated vs dedicated at equal p99 bounds ==\n";
  const auto sweep = dse::sweep_consolidation(pair, {1, 2});
  const int consolidated_chips = sweep.min_consolidated_chips();
  const int dedicated_chips =
      sweep.min_dedicated_chips(0) + sweep.min_dedicated_chips(1);
  const auto& point = sweep.points.front();
  const double dedicated_energy = point.dedicated[0].energy.value() +
                                  point.dedicated[1].energy.value();
  std::cout << "  minimum chips: consolidated " << consolidated_chips
            << " vs dedicated " << dedicated_chips << "\n"
            << "  energy at one chip each: consolidated "
            << point.consolidated.energy.value() * 1e3 << " mJ vs dedicated sum "
            << dedicated_energy * 1e3 << " mJ\n"
            << "  -> antiphase crests multiplex: half the chips, "
            << point.consolidated.energy.value() / dedicated_energy
            << "x the energy\n\n";

  std::cout << "== 4. Governor-aware dispatch ==\n";
  // Interactive + batch tenants on two ondemand-governed chips: chips
  // descend on the diurnal trough, and kGovernorAware steers
  // latency-critical requests away from pending descents (peeking at
  // each chip's next epoch decision) while batch work soaks them.
  dc::Scenario mixed = dc::Scenario::by_name("consolidated-web-batch");
  mixed.policy = dc::BalancePolicy::kLeastLoaded;
  const auto ll = dc::run_scenario(mixed);
  mixed.policy = dc::BalancePolicy::kGovernorAware;
  const auto ga = dc::run_scenario(mixed);
  std::cout << "  least-loaded:   interactive p99 " << in_us(ll.tenants[0].p99)
            << " us, batch p99 " << in_us(ll.tenants[1].p99) << " us\n"
            << "  governor-aware: interactive p99 " << in_us(ga.tenants[0].p99)
            << " us, batch p99 " << in_us(ga.tenants[1].p99) << " us ("
            << ga.steered << " dispatches steered)\n"
            << "  -> the latency-critical tail tightens; batch absorbs the "
               "descending chips\n";
  return 0;
}
