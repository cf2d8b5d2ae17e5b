// End-to-end integration tests: the paper's headline claims, verified on
// reduced sweeps so the suite stays fast. The full-resolution versions are
// the bench binaries (bench/fig*, bench/table*, bench/ablation_*).
#include <gtest/gtest.h>

#include "ntserv/ntserv.hpp"

namespace ntserv {
namespace {

sim::ServerSimConfig fast_config() {
  sim::ServerSimConfig cfg;
  cfg.smarts.warm_instructions = 300'000;
  cfg.smarts.warmup = 10'000;
  cfg.smarts.measure = 20'000;
  cfg.smarts.min_samples = 3;
  cfg.smarts.max_samples = 5;
  return cfg;
}

power::ServerPowerModel platform() {
  return power::ServerPowerModel{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
}

/// Shared three-point sweep for one workload (0.3 / 1.0 / 2.0 GHz).
dse::SweepResult mini_sweep(const workload::WorkloadProfile& profile) {
  dse::ExplorationDriver driver{platform(), fast_config()};
  return driver.sweep(profile, {mhz(300), ghz(1.0), ghz(2.0)});
}

TEST(Integration, CoresEfficiencyPeaksAtLowFrequency) {
  // Paper Fig. 3a: UIPS/W(cores) decreases monotonically with f.
  const auto sweep = mini_sweep(workload::WorkloadProfile::web_search());
  EXPECT_GT(sweep.efficiency(0, dse::Scope::kCores),
            sweep.efficiency(1, dse::Scope::kCores));
  EXPECT_GT(sweep.efficiency(1, dse::Scope::kCores),
            sweep.efficiency(2, dse::Scope::kCores));
}

TEST(Integration, SocEfficiencyPeaksNearOneGigahertz) {
  // Paper Fig. 3b: the constant uncore pushes the optimum to ~1 GHz —
  // the mid-grid point beats both extremes.
  const auto sweep = mini_sweep(workload::WorkloadProfile::web_search());
  EXPECT_GT(sweep.efficiency(1, dse::Scope::kSoc), sweep.efficiency(0, dse::Scope::kSoc));
  EXPECT_GE(sweep.efficiency(1, dse::Scope::kSoc),
            sweep.efficiency(2, dse::Scope::kSoc) * 0.95);
}

TEST(Integration, ServerOptimumAtOrRightOfSocOptimum) {
  // Paper Fig. 3c: DRAM background power moves the optimum further right.
  const auto sweep = mini_sweep(workload::WorkloadProfile::data_serving());
  EXPECT_GE(in_ghz(sweep.optimal_frequency(dse::Scope::kServer)) + 1e-9,
            in_ghz(sweep.optimal_frequency(dse::Scope::kSoc)));
}

TEST(Integration, ScaleOutAppsMeetQosWellBelowTwoGigahertz) {
  // Paper Fig. 2: QoS floors land in the 200-500 MHz band (we allow a
  // slightly wider acceptance band on the coarse test grid).
  dse::ExplorationDriver driver{platform(), fast_config()};
  const auto grid = sim::frequency_grid(mhz(200), ghz(2.0), 6);
  for (const auto& profile : workload::WorkloadProfile::scale_out_suite()) {
    const auto sweep = driver.sweep(profile, grid);
    const auto target = qos::QosTarget::for_workload(profile.name);
    const Hertz floor =
        qos::frequency_floor(target, sweep.uips_samples(), sweep.baseline_uips());
    EXPECT_GE(in_mhz(floor), 150.0) << profile.name;
    EXPECT_LE(in_mhz(floor), 700.0) << profile.name;
  }
}

TEST(Integration, VmDegradationBoundsMatchPaperBands) {
  // Paper Sec. V-A: degradation <= 4x permits ~500 MHz; <= 2x permits
  // ~1 GHz.
  dse::ExplorationDriver driver{platform(), fast_config()};
  const auto grid = sim::frequency_grid(mhz(200), ghz(2.0), 6);
  const auto sweep = driver.sweep(workload::WorkloadProfile::vm_banking_low_mem(), grid);
  const auto samples = sweep.uips_samples();
  const double base = sweep.baseline_uips();
  const Hertz f4 = qos::degradation_floor(samples, base, qos::kMaxDegradationBound);
  const Hertz f2 = qos::degradation_floor(samples, base, qos::kMinDegradationBound);
  EXPECT_LT(in_mhz(f4), 700.0);
  EXPECT_LT(f4.value(), f2.value());
  EXPECT_GT(in_mhz(f2), 400.0);
  EXPECT_LT(in_mhz(f2), 1600.0);
}

TEST(Integration, HighMemVmsOutperformLowMemVms) {
  // Paper Sec. V-B1: VMs high-mem UIPS > VMs low-mem.
  const auto lo = mini_sweep(workload::WorkloadProfile::vm_banking_low_mem());
  const auto hi = mini_sweep(workload::WorkloadProfile::vm_banking_high_mem());
  for (std::size_t i = 0; i < lo.points.size(); ++i) {
    EXPECT_GT(hi.points[i].uips, lo.points[i].uips * 0.97) << "at point " << i;
  }
}

TEST(Integration, MediaStreamingDrawsHighestBandwidth) {
  // Sec. III-A: the streaming service is the bandwidth-bound workload.
  dse::ExplorationDriver driver{platform(), fast_config()};
  const std::vector<Hertz> grid{ghz(2.0)};
  double ms_bw = 0.0, ws_bw = 0.0;
  {
    const auto s = driver.sweep(workload::WorkloadProfile::media_streaming(), grid);
    ms_bw = s.points[0].activity.dram_read_bw + s.points[0].activity.dram_write_bw;
  }
  {
    const auto s = driver.sweep(workload::WorkloadProfile::vm_banking_low_mem(), grid);
    ws_bw = s.points[0].activity.dram_read_bw + s.points[0].activity.dram_write_bw;
  }
  EXPECT_GT(ms_bw, ws_bw);
}

TEST(Integration, FdsoiBeatsBulkAtEveryOperatingPoint) {
  // The technology-level claim carried to the server level.
  const auto soi_platform = platform();
  const auto bulk_platform =
      soi_platform.with_tech(tech::TechnologyModel{tech::TechnologyParams::bulk28()});
  dse::ExplorationDriver soi_driver{soi_platform, fast_config()};
  dse::ExplorationDriver bulk_driver{bulk_platform, fast_config()};
  const auto grid = std::vector<Hertz>{ghz(1.0), ghz(2.0)};
  const auto profile = workload::WorkloadProfile::web_serving();
  const auto soi = soi_driver.sweep(profile, grid);
  const auto bulk = bulk_driver.sweep(profile, grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_GT(soi.efficiency(i, dse::Scope::kServer),
              bulk.efficiency(i, dse::Scope::kServer));
  }
}

TEST(Integration, ChipStaysWithinPowerBudgetAtNominal) {
  // Paper Sec. II-B: 100 W budget; at the 2 GHz operating point under a
  // real workload the server draw should be near (not wildly above) it.
  const auto sweep = mini_sweep(workload::WorkloadProfile::data_serving());
  EXPECT_LT(sweep.points[2].power.server().value(), 100.0);
}

}  // namespace
}  // namespace ntserv
