// Tests for the performance kernel: event-skipping equivalence against
// the cycle-by-cycle path, and thread-count-independent sweep results.
#include <gtest/gtest.h>

#include <atomic>

#include "ntserv/ntserv.hpp"

namespace ntserv {
namespace {

sim::ClusterConfig cluster_config(bool event_skipping, Hertz clock = ghz(2.0),
                                  bool wakeup_list = true, const cpu::CoreParams& core = {}) {
  sim::ClusterConfig cc;
  cc.core = core;
  cc.core_clock = clock;
  cc.event_skipping = event_skipping;
  cc.core.wakeup_list = wakeup_list;
  return cc;
}

void expect_identical_metrics(sim::Cluster& ticked, sim::Cluster& skipping) {
  ASSERT_EQ(ticked.now(), skipping.now());
  EXPECT_EQ(ticked.total_committed(), skipping.total_committed());

  const auto a = ticked.metrics();
  const auto b = skipping.metrics();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.uipc, b.uipc);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.issue_utilization, b.issue_utilization);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);

  EXPECT_EQ(a.memory.l1i_misses, b.memory.l1i_misses);
  EXPECT_EQ(a.memory.l1d_misses, b.memory.l1d_misses);
  EXPECT_EQ(a.memory.llc_hits, b.memory.llc_hits);
  EXPECT_EQ(a.memory.llc_misses, b.memory.llc_misses);
  EXPECT_EQ(a.memory.llc_writebacks, b.memory.llc_writebacks);
  EXPECT_EQ(a.memory.xbar_flits, b.memory.xbar_flits);
  EXPECT_EQ(a.memory.rejected, b.memory.rejected);
  EXPECT_EQ(a.memory.prefetches_issued, b.memory.prefetches_issued);

  EXPECT_EQ(a.dram.reads, b.dram.reads);
  EXPECT_EQ(a.dram.writes, b.dram.writes);
  EXPECT_EQ(a.dram.refreshes, b.dram.refreshes);
  EXPECT_EQ(a.dram.forwarded_reads, b.dram.forwarded_reads);
  EXPECT_DOUBLE_EQ(a.dram.row_hit_rate, b.dram.row_hit_rate);
  EXPECT_DOUBLE_EQ(a.dram.avg_read_latency_cycles, b.dram.avg_read_latency_cycles);

  for (int c = 0; c < 4; ++c) {
    const auto& sa = ticked.core(c).stats();
    const auto& sb = skipping.core(c).stats();
    EXPECT_EQ(sa.cycles, sb.cycles) << "core " << c;
    EXPECT_EQ(sa.committed_total, sb.committed_total) << "core " << c;
    EXPECT_EQ(sa.committed_user, sb.committed_user) << "core " << c;
    EXPECT_EQ(sa.issued, sb.issued) << "core " << c;
    EXPECT_EQ(sa.loads, sb.loads) << "core " << c;
    EXPECT_EQ(sa.stores, sb.stores) << "core " << c;
    EXPECT_EQ(sa.branches, sb.branches) << "core " << c;
    EXPECT_EQ(sa.branch_mispredicts, sb.branch_mispredicts) << "core " << c;
    EXPECT_EQ(sa.load_forwards, sb.load_forwards) << "core " << c;
    EXPECT_EQ(sa.fetch_stall_cycles, sb.fetch_stall_cycles) << "core " << c;
    EXPECT_EQ(sa.rob_full_cycles, sb.rob_full_cycles) << "core " << c;
  }
}

void run_equivalence(const workload::WorkloadProfile& profile, Hertz clock,
                     const cpu::CoreParams& core = {}) {
  // Full scheduler x kernel matrix against one reference: the polled
  // issue scan without event skipping (the original cycle-by-cycle path).
  const auto config = [&](bool skipping, bool wakeup) {
    return cluster_config(skipping, clock, wakeup, core);
  };
  sim::Cluster reference{config(false, false), workload::per_core_streams(profile, 9001, 4)};
  sim::Cluster polled_skipping{config(true, false), workload::per_core_streams(profile, 9001, 4)};
  sim::Cluster wakeup_ticked{config(false, true), workload::per_core_streams(profile, 9001, 4)};
  sim::Cluster wakeup_skipping{config(true, true), workload::per_core_streams(profile, 9001, 4)};
  const auto each = [&](auto&& fn) {
    fn(polled_skipping);
    fn(wakeup_ticked);
    fn(wakeup_skipping);
  };

  reference.run(150'000);
  each([&](sim::Cluster& c) {
    c.run(150'000);
    expect_identical_metrics(reference, c);
  });

  // And again over a measurement window after a stats reset, the way the
  // SMARTS sampler drives the cluster.
  reference.reset_stats();
  reference.run(60'000);
  each([&](sim::Cluster& c) {
    c.reset_stats();
    c.run(60'000);
    expect_identical_metrics(reference, c);
  });
}

TEST(EventSkipping, MatchesTickedPathOnMemoryBoundWorkload) {
  // Data Serving is the paper's memory-bound outlier: high MPKI, low IPC,
  // long all-core DRAM stalls — exactly where the kernel skips.
  run_equivalence(workload::WorkloadProfile::data_serving(), ghz(2.0));
}

TEST(EventSkipping, MatchesTickedPathOnComputeBoundWorkload) {
  run_equivalence(workload::WorkloadProfile::vm_banking_low_mem(), ghz(2.0));
}

TEST(EventSkipping, MatchesTickedPathAtLowFrequency) {
  // Low core clock flips the core/memory cycle ratio above one, stressing
  // the clock-domain conversion in the skip-length computation.
  run_equivalence(workload::WorkloadProfile::media_streaming(), mhz(400));
}

TEST(EventSkipping, MatchesTickedPathWithNonPowerOfTwoRob) {
  // 96 entries round the ROB ring up to 128 slots: the window wraps
  // mid-ring, and the ready-bitmap walk crosses the wrap point.
  cpu::CoreParams core;
  core.rob_entries = 96;
  run_equivalence(workload::WorkloadProfile::data_serving(), ghz(2.0), core);
}

TEST(EventSkipping, SkipsCyclesOnMemoryBoundWorkload) {
  // Exact skip totals, pinned from the uncached DRAM refresh bound. The
  // per-rank bound is cached between bank-state changes: one left stale
  // and early only wakes the cluster for no-op ticks, so the metrics still
  // match the ticked path but skips are lost; one left stale and late
  // breaks the equivalence above. Either way the total moves. Each of the
  // four invalidations (ACT, PRE, CAS, REF) moves at least one total: the
  // Data Serving run alone misses a stale bound after a CAS, which the
  // Media Streaming run catches.
  struct Case {
    workload::WorkloadProfile profile;
    std::uint64_t seed;
    Cycle skipped;
  };
  for (const Case& c : {Case{workload::WorkloadProfile::data_serving(), 77, 29526},
                        Case{workload::WorkloadProfile::media_streaming(), 77, 32592}}) {
    sim::Cluster cl{cluster_config(true), workload::per_core_streams(c.profile, c.seed, 4)};
    cl.run(150'000);
    EXPECT_EQ(cl.skipped_cycles(), c.skipped) << c.profile.name << " seed " << c.seed;
  }
}

TEST(EventSkipping, RunUntilCommittedAgrees) {
  sim::Cluster reference{cluster_config(false, ghz(2.0), false),
                         workload::per_core_streams(workload::WorkloadProfile::web_search(), 5, 4)};
  reference.run_until_committed(100'000, 1'000'000);
  for (const bool skipping : {false, true}) {
    for (const bool wakeup : {false, true}) {
      if (!skipping && !wakeup) continue;  // the reference itself
      sim::Cluster c{cluster_config(skipping, ghz(2.0), wakeup),
                     workload::per_core_streams(workload::WorkloadProfile::web_search(), 5, 4)};
      c.run_until_committed(100'000, 1'000'000);
      EXPECT_EQ(reference.now(), c.now()) << "skipping=" << skipping << " wakeup=" << wakeup;
      EXPECT_EQ(reference.total_committed(), c.total_committed())
          << "skipping=" << skipping << " wakeup=" << wakeup;
    }
  }
}

TEST(WakeupList, CalendarFeedsSkipKernelAndStaysMetricIdentical) {
  // The wake calendar feeds next_event_cycle() the exact issue-side wake
  // cycle, so the skip kernel must still find (and take) quiet windows
  // under the wakeup scheduler. Individual hints are tighter than the
  // polled path's conservative bounds, but aggregate skip totals are
  // path-dependent (a longer skip changes where later hints are
  // evaluated), so only skip *activity* and metric identity are
  // invariants worth asserting — not a skip-count ordering.
  sim::Cluster polled{cluster_config(true, ghz(2.0), false),
                      workload::per_core_streams(workload::WorkloadProfile::data_serving(), 77, 4)};
  sim::Cluster wakeup{cluster_config(true, ghz(2.0), true),
                      workload::per_core_streams(workload::WorkloadProfile::data_serving(), 77, 4)};
  polled.run(150'000);
  wakeup.run(150'000);
  EXPECT_GT(wakeup.skipped_cycles(), 0u);
  expect_identical_metrics(polled, wakeup);
}

TEST(SweepDeterminism, SameResultsForOneAndManyThreads) {
  power::ServerPowerModel platform{
      tech::TechnologyModel{tech::TechnologyParams::fdsoi28()}, power::ChipConfig{}};
  sim::ServerSimConfig cfg;
  cfg.smarts.warm_instructions = 100'000;
  cfg.smarts.warmup = 5'000;
  cfg.smarts.measure = 10'000;
  cfg.smarts.min_samples = 2;
  cfg.smarts.max_samples = 3;
  sim::ServerSimulator simulator{workload::WorkloadProfile::web_search(), platform, cfg};

  const auto grid = sim::frequency_grid(mhz(400), ghz(2.0), 5);
  const auto serial = simulator.sweep(grid, 1);
  const auto parallel = simulator.sweep(grid, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].uips, parallel[i].uips) << "point " << i;
    EXPECT_DOUBLE_EQ(serial[i].uipc_cluster, parallel[i].uipc_cluster) << "point " << i;
    EXPECT_DOUBLE_EQ(serial[i].power.server().value(), parallel[i].power.server().value())
        << "point " << i;
    EXPECT_DOUBLE_EQ(serial[i].eff_server, parallel[i].eff_server) << "point " << i;
    EXPECT_EQ(serial[i].sampling.samples, parallel[i].sampling.samples) << "point " << i;
  }
}

TEST(SweepDeterminism, ThreadPoolRunsAllTasks) {
  sim::ThreadPool pool{3};
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace ntserv
