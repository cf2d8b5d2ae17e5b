#include "sim/server_sim.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <mutex>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/thread_pool.hpp"

namespace ntserv::sim {

ServerSimulator::ServerSimulator(workload::WorkloadProfile profile,
                                 power::ServerPowerModel power_model, ServerSimConfig config)
    : profile_(std::move(profile)), power_(std::move(power_model)), config_(config) {
  profile_.validate();
}

power::ActivityVector ServerSimulator::activity_from(const ClusterMetrics& m, Hertz f) const {
  NTSERV_EXPECTS(m.cycles > 0, "empty measurement window");
  const double seconds = static_cast<double>(m.cycles) / f.value();
  const double clusters = static_cast<double>(config_.chip.clusters);

  power::ActivityVector a;
  a.core_activity = std::min(
      1.0, config_.activity_floor + (1.0 - config_.activity_floor) * m.issue_utilization);
  a.llc_reads_per_s =
      clusters * static_cast<double>(m.memory.llc_hits + m.memory.llc_misses) / seconds;
  a.llc_writes_per_s = clusters * static_cast<double>(m.memory.l1_writebacks) / seconds;
  a.llc_probes_per_s = clusters *
                       static_cast<double>(m.memory.back_invalidations +
                                           m.memory.owner_forwards) /
                       seconds;
  a.xbar_flits_per_s = clusters * static_cast<double>(m.memory.xbar_flits) / seconds;

  // DRAM bandwidth: per-cluster measured, scaled to the chip and capped at
  // the channels' physical peak (the 9 clusters share 4 channels).
  const Hertz mem_clock = config_.cluster.dram.timing.clock();
  const double mem_seconds =
      m.dram_cycles > 0 ? static_cast<double>(m.dram_cycles) / mem_clock.value() : seconds;
  // Peak = channels x data rate (2x memory clock, DDR) x 8 bytes/beat.
  const double peak = static_cast<double>(power_.dram().params().channels) *
                      mem_clock.value() * 2.0 * 8.0;
  a.dram_read_bw =
      std::min(peak, clusters * static_cast<double>(m.dram.read_bytes) / mem_seconds);
  a.dram_write_bw =
      std::min(peak - std::min(peak, a.dram_read_bw) + 1.0,
               clusters * static_cast<double>(m.dram.write_bytes) / mem_seconds);
  return a;
}

OperatingPointResult ServerSimulator::evaluate(Hertz f) const {
  NTSERV_EXPECTS(power_.tech().feasible(f), "frequency infeasible for the technology");

  ClusterConfig cc = config_.cluster;
  cc.core_clock = f;
  // Per-point stream: a pure function of (config seed, frequency), so a
  // sweep's results do not depend on evaluation order or thread count.
  const std::uint64_t point_seed =
      derive_seed(config_.seed, std::bit_cast<std::uint64_t>(f.value()));
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < cc.hierarchy.cores; ++c) {
    sources.push_back(std::make_unique<workload::SyntheticWorkload>(
        profile_, point_seed + static_cast<std::uint64_t>(c) * 7919,
        workload::AddressSpace::for_core(static_cast<CoreId>(c))));
  }
  Cluster cluster{cc, std::move(sources)};

  SmartsSampler sampler{config_.smarts};
  SampleResult sampling = sampler.run(cluster);

  OperatingPointResult r;
  r.frequency = f;
  r.vdd = power_.tech().voltage_for(f);
  r.uipc_cluster = sampling.uipc_mean;
  r.uips = sampling.uipc_mean * f.value() * static_cast<double>(config_.chip.clusters);
  r.sampling = sampling;
  r.window = sampling.last_window;
  r.activity = activity_from(sampling.last_window, f);
  r.power = power_.evaluate(f, r.activity);
  r.eff_cores = r.uips / r.power.cores().value();
  r.eff_soc = r.uips / r.power.soc().value();
  r.eff_server = r.uips / r.power.server().value();
  return r;
}

std::vector<OperatingPointResult> ServerSimulator::sweep(const std::vector<Hertz>& points,
                                                         int threads) const {
  std::vector<OperatingPointResult> out(points.size());
  parallel_for_index(threads, points.size(),
                     [this, &points, &out](std::size_t i) { out[i] = evaluate(points[i]); });
  return out;
}

std::vector<Hertz> frequency_grid(Hertz lo, Hertz hi, int points) {
  NTSERV_EXPECTS(points >= 2 && hi > lo, "grid needs >=2 points and hi > lo");
  std::vector<Hertz> grid;
  grid.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    grid.push_back(Hertz{lo.value() + t * (hi.value() - lo.value())});
  }
  return grid;
}

}  // namespace ntserv::sim
