#include <gtest/gtest.h>

#include <map>

#include "workload/bitbrains.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace ntserv::workload {
namespace {

class ProfileTest : public ::testing::TestWithParam<WorkloadProfile> {};

TEST_P(ProfileTest, Validates) { EXPECT_NO_THROW(GetParam().validate()); }

TEST_P(ProfileTest, MixSumsToOne) { EXPECT_NEAR(GetParam().mix.sum(), 1.0, 1e-9); }

TEST_P(ProfileTest, GeneratedMixMatchesProfile) {
  const auto profile = GetParam();
  SyntheticWorkload gen{profile, 42};
  std::map<cpu::UopType, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[gen.next().type];
  EXPECT_NEAR(counts[cpu::UopType::kLoad] / static_cast<double>(n), profile.mix.load, 0.02);
  EXPECT_NEAR(counts[cpu::UopType::kStore] / static_cast<double>(n), profile.mix.store, 0.02);
  EXPECT_NEAR(counts[cpu::UopType::kBranch] / static_cast<double>(n), profile.mix.branch,
              0.03);
}

TEST_P(ProfileTest, AddressesStayInConfiguredRegions) {
  const auto profile = GetParam();
  const AddressSpace space = AddressSpace::for_core(1);
  SyntheticWorkload gen{profile, 7, space};
  for (int i = 0; i < 100000; ++i) {
    const auto op = gen.next();
    if (cpu::is_memory(op.type)) {
      const bool in_data = op.mem_addr >= space.data_base &&
                           op.mem_addr < space.data_base + profile.data_footprint +
                                             profile.stack_bytes + kCacheLineBytes;
      const bool in_shared = op.mem_addr >= space.shared_base &&
                             op.mem_addr < space.shared_base + space.shared_size;
      EXPECT_TRUE(in_data || in_shared) << std::hex << op.mem_addr;
    }
    // PC stays in the code region (user) or the OS region right above it.
    EXPECT_GE(op.pc, space.code_base);
    EXPECT_LT(op.pc, space.code_base + 2 * profile.code_footprint + kCacheLineBytes);
  }
}

TEST_P(ProfileTest, OsFractionApproximatelyRespected) {
  const auto profile = GetParam();
  SyntheticWorkload gen{profile, 11};
  int os = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    if (!gen.next().is_user) ++os;
  }
  EXPECT_NEAR(os / static_cast<double>(n), profile.os_fraction,
              0.05 + profile.os_fraction * 0.5);
}

TEST_P(ProfileTest, DeterministicForSeed) {
  const auto profile = GetParam();
  SyntheticWorkload a{profile, 123}, b{profile, 123};
  for (int i = 0; i < 10000; ++i) {
    const auto x = a.next();
    const auto y = b.next();
    ASSERT_EQ(static_cast<int>(x.type), static_cast<int>(y.type));
    ASSERT_EQ(x.mem_addr, y.mem_addr);
    ASSERT_EQ(x.pc, y.pc);
    ASSERT_EQ(x.branch_taken, y.branch_taken);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileTest,
                         ::testing::ValuesIn([] {
                           auto v = WorkloadProfile::scale_out_suite();
                           for (auto& p : WorkloadProfile::vm_suite()) v.push_back(p);
                           return v;
                         }()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

TEST(Workload, SuitesHaveThePaperWorkloads) {
  const auto suite = WorkloadProfile::scale_out_suite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].name, "Data Serving");
  EXPECT_EQ(suite[1].name, "Web Search");
  EXPECT_EQ(suite[2].name, "Web Serving");
  EXPECT_EQ(suite[3].name, "Media Streaming");
  const auto vms = WorkloadProfile::vm_suite();
  ASSERT_EQ(vms.size(), 2u);
  EXPECT_EQ(vms[0].name, "VMs low-mem");
  EXPECT_EQ(vms[1].name, "VMs high-mem");
}

TEST(Workload, VmFootprintsMatchPaperProvisioning) {
  EXPECT_EQ(WorkloadProfile::vm_banking_low_mem().data_footprint, 100 * kMiB);
  EXPECT_EQ(WorkloadProfile::vm_banking_high_mem().data_footprint, 700 * kMiB);
}

TEST(Workload, HotRegionGetsMostHeapTraffic) {
  const auto profile = WorkloadProfile::data_serving();
  const AddressSpace space;
  SyntheticWorkload gen{profile, 3, space};
  std::uint64_t hot = 0, heap = 0;
  for (int i = 0; i < 300000; ++i) {
    const auto op = gen.next();
    if (!cpu::is_memory(op.type)) continue;
    if (op.mem_addr >= space.data_base &&
        op.mem_addr < space.data_base + profile.data_footprint) {
      ++heap;
      if (op.mem_addr < space.data_base + profile.hot_footprint) ++hot;
    }
  }
  ASSERT_GT(heap, 0u);
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(heap), 0.6);
}

TEST(Workload, ValidationCatchesBadProfiles) {
  auto p = WorkloadProfile::web_search();
  p.mix.load += 0.1;
  EXPECT_THROW(p.validate(), ModelError);
  p = WorkloadProfile::web_search();
  p.hot_footprint = p.data_footprint * 2;
  EXPECT_THROW(p.validate(), ModelError);
  p = WorkloadProfile::web_search();
  p.stack_fraction = 0.9;
  p.streaming_fraction = 0.2;
  EXPECT_THROW(p.validate(), ModelError);
}

// ---- Bitbrains population model ----

TEST(Bitbrains, PopulationSizeMatchesArchive) {
  BitbrainsTraceModel model;
  EXPECT_EQ(model.sample_population().size(), 1750u);
}

TEST(Bitbrains, SummaryHasTwoClasses) {
  BitbrainsTraceModel model;
  const auto summary = BitbrainsTraceModel::summarize(model.sample_population());
  EXPECT_GT(summary.low_mem_fraction, 0.3);
  EXPECT_LT(summary.low_mem_fraction, 0.95);
  EXPECT_GT(summary.high_mem_class_mb, summary.low_mem_class_mb);
  // The representative classes bracket the paper's 100 MB / 700 MB picks.
  EXPECT_LT(summary.low_mem_class_mb, 300.0);
  EXPECT_GT(summary.high_mem_class_mb, 300.0);
}

TEST(Bitbrains, HeavyTailedMemory) {
  BitbrainsTraceModel model;
  const auto summary = BitbrainsTraceModel::summarize(model.sample_population());
  EXPECT_GT(summary.mem_mean_mb, summary.mem_p50_mb);  // right-skewed
  EXPECT_GT(summary.mem_p90_mb, 2.0 * summary.mem_p50_mb);
}

TEST(Bitbrains, CpuUtilizationBounded) {
  BitbrainsTraceModel model{BitbrainsParams{}, 5};
  for (int i = 0; i < 1000; ++i) {
    const auto vm = model.sample();
    EXPECT_GE(vm.cpu_util, 0.0);
    EXPECT_LE(vm.cpu_util, 1.0);
    EXPECT_GT(vm.mem_mb, 0.0);
  }
}

TEST(Bitbrains, EmptySummaryThrows) {
  EXPECT_THROW(BitbrainsTraceModel::summarize({}), ModelError);
}

}  // namespace
}  // namespace ntserv::workload
