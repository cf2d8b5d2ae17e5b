// Sharded fleet execution: one fleet run split across worker threads
// with bit-identical results (the FleetRunner API).
//
// The data plane (per-chip cycle advancement — the cache/DRAM/core
// models, ~all of the wall clock at rack scale) runs in lookahead
// windows: between two fleet-visible events (an arrival, a timer, a
// fault, the epoch boundary) every busy chip runs its own quanta, and
// up to min(threads, shard count) workers claim chips one at a time.
// The control plane (dispatch, admission, governors, brownout,
// autoscaling, telemetry) stays serial between windows. The
// determinism contract: ANY shard count x ANY thread count produces a
// bit-identical FleetResult. This demo runs a governed diurnal fleet
// serially and sharded, checks identity, and reports the speedup (chip
// construction included: it fans out over the same threads).
//
// Build & run:  ./build/example_sharded_fleet [chips] [requests] [threads]
//   defaults:   ./build/example_sharded_fleet 32 400 <hardware threads>
// The acceptance-scale run (>= 500 chips, >= 3x at 8 threads on an idle
// >= 8-core host):  ./build/example_sharded_fleet 512 4000 8
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "ntserv/ntserv.hpp"

using namespace ntserv;

namespace {

double wall_seconds(const dc::FleetRunner& runner, const dc::RunOptions& options,
                    dc::FleetResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = runner.run(options);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const int chips = argc > 1 ? std::atoi(argv[1]) : 32;
  const std::uint64_t requests =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 400;
  const int threads = argc > 3 ? std::atoi(argv[3])
                               : static_cast<int>(std::thread::hardware_concurrency());

  // A governed diurnal web fleet: the registry's NTC-boost diurnal
  // scenario scaled out to `chips` chips, its arrival rate scaled with it.
  const dc::Scenario base = dc::Scenario::by_name("webserving-diurnal-ntcboost");
  dc::FleetConfig config = base.fleet_config(ghz(2.0));
  config.servers = chips;
  dc::TenantSpec& traffic = config.tenants[0];
  traffic.arrival.rate *= static_cast<double>(chips) / static_cast<double>(base.servers);
  traffic.requests = requests;
  traffic.warmup_requests = requests / 10;
  const dc::FleetRunner runner{config};

  std::cout << "Sharded fleet execution: " << chips << " chips, " << requests
            << " requests, " << threads << " worker threads ("
            << std::thread::hardware_concurrency() << " hardware threads)\n";
  const dc::ShardPlan plan = runner.plan(dc::RunOptions{.threads = threads});
  std::cout << "Shard plan: " << plan.shard_count()
            << " shards (caps the workers claiming busy chips each window)\n\n";

  dc::FleetResult serial, sharded;
  const double serial_s =
      wall_seconds(runner, dc::RunOptions{.shards = 1, .threads = 1}, serial);
  std::cout << "serial   (1 shard,  1 thread):  " << serial_s << " s, p99 "
            << in_us(serial.p99) << " us, completed " << serial.completed_all
            << ", energy " << serial.energy.value() * 1e3 << " mJ\n";
  const double sharded_s =
      wall_seconds(runner, dc::RunOptions{.threads = threads}, sharded);
  std::cout << "sharded  (" << plan.shard_count() << " shards, " << threads
            << " threads): " << sharded_s << " s, p99 " << in_us(sharded.p99)
            << " us, completed " << sharded.completed_all << ", energy "
            << sharded.energy.value() * 1e3 << " mJ\n\n";

  if (serial != sharded) {  // whole-result bit-identity
    std::cout << "FAIL: sharded run diverged from the serial reference\n";
    return 1;
  }
  std::cout << "bit-identical: yes\n"
            << "speedup: " << serial_s / sharded_s << "x at " << threads
            << " threads\n";
  return 0;
}
