#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/sampling.hpp"
#include "workload/synthetic.hpp"

namespace ntserv::sim {
namespace {

Cluster make_cluster(Hertz f = ghz(1.0), std::uint64_t seed = 1) {
  ClusterConfig cc;
  cc.core_clock = f;
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < 4; ++c) {
    sources.push_back(std::make_unique<workload::SyntheticWorkload>(
        workload::WorkloadProfile::web_search(), seed + static_cast<std::uint64_t>(c),
        workload::AddressSpace::for_core(static_cast<CoreId>(c))));
  }
  return Cluster{cc, std::move(sources)};
}

TEST(Cluster, RunAdvancesTime) {
  auto cl = make_cluster();
  cl.run(1000);
  EXPECT_EQ(cl.now(), 1000u);
  EXPECT_GT(cl.total_committed(), 0u);
}

TEST(Cluster, MetricsAggregateAcrossCores) {
  auto cl = make_cluster();
  cl.run(30000);
  const auto m = cl.metrics();
  EXPECT_GT(m.uipc, 0.0);
  EXPECT_GE(m.ipc, m.uipc);  // OS instructions excluded from UIPC only
  EXPECT_GT(m.issue_utilization, 0.0);
  EXPECT_LE(m.issue_utilization, 1.0);
  EXPECT_GT(m.l1d_mpki, 0.0);
}

TEST(Cluster, ResetStatsStartsFreshWindow) {
  auto cl = make_cluster();
  cl.run(20000);
  cl.reset_stats();
  EXPECT_EQ(cl.metrics().cycles, 0u);
  cl.run(5000);
  EXPECT_EQ(cl.metrics().cycles, 5000u);
}

TEST(Cluster, RunUntilCommittedHitsTarget) {
  auto cl = make_cluster();
  cl.run_until_committed(50000, 2'000'000);
  EXPECT_GE(cl.total_committed(), 50000u);
}

TEST(Cluster, RunUntilCommittedRespectsDeadline) {
  auto cl = make_cluster();
  cl.run_until_committed(100'000'000, 5000);
  EXPECT_LE(cl.now(), 5000u + 10'000u);
}

TEST(Cluster, RequiresOneSourcePerCore) {
  ClusterConfig cc;
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  sources.push_back(std::make_unique<workload::SyntheticWorkload>(
      workload::WorkloadProfile::web_search(), 1));
  EXPECT_THROW(Cluster(cc, std::move(sources)), ModelError);
}

TEST(Smarts, ProducesConvergedEstimate) {
  auto cl = make_cluster();
  SmartsConfig cfg;
  cfg.warm_instructions = 200'000;
  cfg.warmup = 10'000;
  cfg.measure = 20'000;
  cfg.min_samples = 3;
  cfg.max_samples = 20;
  cfg.target_rel_error = 0.08;
  const auto r = SmartsSampler{cfg}.run(cl);
  EXPECT_GT(r.uipc_mean, 0.0);
  EXPECT_GE(r.samples, cfg.min_samples);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.uipc_rel_error, cfg.target_rel_error);
  EXPECT_EQ(r.last_window.cycles, cfg.measure);
}

TEST(Smarts, StopsAtMaxSamples) {
  auto cl = make_cluster();
  SmartsConfig cfg;
  cfg.warm_instructions = 50'000;
  cfg.warmup = 2'000;
  cfg.measure = 2'000;  // windows too small to converge tightly
  cfg.min_samples = 2;
  cfg.max_samples = 4;
  cfg.target_rel_error = 0.0001;
  const auto r = SmartsSampler{cfg}.run(cl);
  EXPECT_EQ(r.samples, 4);
  EXPECT_FALSE(r.converged);
}

TEST(Smarts, DeterministicAcrossRuns) {
  SmartsConfig cfg;
  cfg.warm_instructions = 100'000;
  cfg.warmup = 5'000;
  cfg.measure = 10'000;
  cfg.min_samples = 3;
  cfg.max_samples = 3;
  auto a = make_cluster(ghz(1.0), 42);
  auto b = make_cluster(ghz(1.0), 42);
  const auto ra = SmartsSampler{cfg}.run(a);
  const auto rb = SmartsSampler{cfg}.run(b);
  EXPECT_DOUBLE_EQ(ra.uipc_mean, rb.uipc_mean);
}

TEST(Smarts, ValidatesConfig) {
  auto cl = make_cluster();
  SmartsConfig bad;
  bad.measure = 0;
  EXPECT_THROW((void)SmartsSampler{bad}.run(cl), ModelError);
  bad = SmartsConfig{};
  bad.min_samples = 5;
  bad.max_samples = 2;
  EXPECT_THROW((void)SmartsSampler{bad}.run(cl), ModelError);
}

}  // namespace
}  // namespace ntserv::sim
