#include <gtest/gtest.h>

#include "cache/cluster_memory.hpp"
#include "common/rng.hpp"

namespace ntserv::cache {
namespace {

/// Advance one cycle; deliver nothing (helper for hand-driven tests).
void step(ClusterMemorySystem& mem, Cycle& now) {
  mem.tick(now);
  ++now;
}

std::vector<MissCompletion> run_until_complete(ClusterMemorySystem& mem, Cycle& now,
                                               std::size_t count, Cycle limit = 100000) {
  std::vector<MissCompletion> done;
  const Cycle end = now + limit;
  while (done.size() < count && now < end) {
    step(mem, now);
    auto part = mem.drain_completions();
    done.insert(done.end(), part.begin(), part.end());
  }
  return done;
}

HierarchyParams no_prefetch() {
  HierarchyParams p;
  p.nextline_prefetch = false;
  return p;
}

TEST(ClusterMemory, L1HitLatency) {
  ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  auto t0 = mem.access(0, 0x1000, AccessType::kLoad, 1, now);
  EXPECT_EQ(t0.status, AccessTicket::Status::kMiss);
  (void)run_until_complete(mem, now, 1);
  const auto t1 = mem.access(0, 0x1000, AccessType::kLoad, 2, now);
  EXPECT_EQ(t1.status, AccessTicket::Status::kHit);
  EXPECT_EQ(t1.complete_at, now + mem.params().l1_latency);
  EXPECT_EQ(mem.stats().l1d_hits, 1u);
}

TEST(ClusterMemory, MissCompletionCarriesTag) {
  ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  (void)mem.access(2, 0xABC000, AccessType::kLoad, 777, now);
  const auto done = run_until_complete(mem, now, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].core, 2u);
  EXPECT_EQ(done[0].user_tag, 777u);
  EXPECT_GT(done[0].done, 0u);
}

TEST(ClusterMemory, SecondCoreGetsLlcHit) {
  ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  (void)mem.access(0, 0x4000, AccessType::kLoad, 1, now);
  (void)run_until_complete(mem, now, 1);
  // Core 1 misses its own L1 but hits the shared LLC.
  const auto t = mem.access(1, 0x4000, AccessType::kLoad, 2, now);
  EXPECT_EQ(t.status, AccessTicket::Status::kHit);
  EXPECT_GT(t.complete_at, now + mem.params().l1_latency);
  EXPECT_EQ(mem.stats().llc_hits, 1u);
}

TEST(ClusterMemory, MergedMissesShareOneDramFill) {
  ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  (void)mem.access(0, 0x8000, AccessType::kLoad, 1, now);
  (void)mem.access(1, 0x8000, AccessType::kLoad, 2, now);
  (void)mem.access(0, 0x8020, AccessType::kLoad, 3, now);  // same line
  const auto done = run_until_complete(mem, now, 3);
  EXPECT_EQ(done.size(), 3u);
  EXPECT_EQ(mem.dram().stats().reads, 1u);
  EXPECT_EQ(mem.stats().merged_misses, 2u);
}

TEST(ClusterMemory, MshrBackpressureRejects) {
  HierarchyParams p = no_prefetch();
  p.l1_mshrs = 2;
  ClusterMemorySystem mem{p, dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  EXPECT_EQ(mem.access(0, 64 * 1000, AccessType::kLoad, 1, now).status,
            AccessTicket::Status::kMiss);
  EXPECT_EQ(mem.access(0, 64 * 2000, AccessType::kLoad, 2, now).status,
            AccessTicket::Status::kMiss);
  EXPECT_EQ(mem.access(0, 64 * 3000, AccessType::kLoad, 3, now).status,
            AccessTicket::Status::kRejected);
  EXPECT_EQ(mem.stats().rejected, 1u);
  // Other cores have their own MSHRs.
  EXPECT_EQ(mem.access(1, 64 * 4000, AccessType::kLoad, 4, now).status,
            AccessTicket::Status::kMiss);
}

TEST(ClusterMemory, StoreMissFillsExclusive) {
  ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  (void)mem.access(0, 0xC000, AccessType::kStore, 1, now);
  (void)run_until_complete(mem, now, 1);
  // A store hit on the now-exclusive line completes locally.
  const auto t = mem.access(0, 0xC008, AccessType::kStore, 2, now);
  EXPECT_EQ(t.status, AccessTicket::Status::kHit);
  EXPECT_EQ(t.complete_at, now + mem.params().l1_latency);
  mem.check_coherence_invariants();
}

TEST(ClusterMemory, StoreUpgradeOnSharedLine) {
  ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  // Both cores load the line (shared).
  (void)mem.access(0, 0x10000, AccessType::kLoad, 1, now);
  (void)run_until_complete(mem, now, 1);
  (void)mem.access(1, 0x10000, AccessType::kLoad, 2, now);
  now += 50;
  // Core 0 stores: needs an upgrade (slower than an L1 hit), invalidating
  // core 1's copy.
  const auto t = mem.access(0, 0x10000, AccessType::kStore, 3, now);
  EXPECT_EQ(t.status, AccessTicket::Status::kHit);
  EXPECT_GT(t.complete_at, now + mem.params().l1_latency);
  EXPECT_GE(mem.stats().back_invalidations, 1u);
  // Core 1 re-reads: its copy is gone (L1 miss; dirty owner forward).
  const auto t2 = mem.access(1, 0x10000, AccessType::kLoad, 4, now + 100);
  EXPECT_EQ(t2.status, AccessTicket::Status::kHit);  // LLC has it
  EXPECT_GE(mem.stats().owner_forwards, 1u);
  mem.check_coherence_invariants();
}

TEST(ClusterMemory, CoherenceInvariantsUnderRandomTraffic) {
  ClusterMemorySystem mem{HierarchyParams{}, dram::DramConfig{}, ghz(2.0)};
  Xoshiro256StarStar rng{99};
  Cycle now = 0;
  std::uint64_t tag = 0;
  // Small shared region to force heavy interaction.
  for (int i = 0; i < 30000; ++i) {
    step(mem, now);
    (void)mem.drain_completions();
    const Addr a = rng.uniform_below(512) * 64;
    const AccessType t = rng.bernoulli(0.3) ? AccessType::kStore : AccessType::kLoad;
    (void)mem.access(static_cast<CoreId>(rng.uniform_below(4)), a, t, ++tag, now);
    if (i % 2048 == 0) mem.check_coherence_invariants();
  }
  mem.check_coherence_invariants();
}

TEST(ClusterMemory, InclusiveEvictionShootsDownL1) {
  // Tiny LLC so demand traffic forces victimization of L1-resident lines.
  HierarchyParams p = no_prefetch();
  p.llc = CacheArrayParams{16 * kKiB, 2, false};
  ClusterMemorySystem mem{p, dram::DramConfig{}, ghz(1.0)};
  Xoshiro256StarStar rng{7};
  Cycle now = 0;
  std::uint64_t tag = 0;
  for (int i = 0; i < 20000; ++i) {
    step(mem, now);
    (void)mem.drain_completions();
    (void)mem.access(0, rng.uniform_below(4096) * 64, AccessType::kLoad, ++tag, now);
  }
  EXPECT_GT(mem.stats().back_invalidations, 0u);
  mem.check_coherence_invariants();
}

TEST(ClusterMemory, DirtyEvictionsReachDram) {
  HierarchyParams p = no_prefetch();
  p.llc = CacheArrayParams{16 * kKiB, 2, false};
  ClusterMemorySystem mem{p, dram::DramConfig{}, ghz(1.0)};
  Xoshiro256StarStar rng{13};
  Cycle now = 0;
  std::uint64_t tag = 0;
  for (int i = 0; i < 40000; ++i) {
    step(mem, now);
    (void)mem.drain_completions();
    (void)mem.access(0, rng.uniform_below(2048) * 64, AccessType::kStore, ++tag, now);
  }
  // Let the system settle.
  for (int i = 0; i < 5000; ++i) step(mem, now);
  EXPECT_GT(mem.stats().llc_writebacks, 0u);
  EXPECT_GT(mem.dram().stats().writes, 0u);
}

TEST(ClusterMemory, IFetchTracksSeparateL1) {
  ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, ghz(1.0)};
  Cycle now = 0;
  (void)mem.access(0, 0x20000, AccessType::kIFetch, 1, now);
  (void)run_until_complete(mem, now, 1);
  EXPECT_EQ(mem.access(0, 0x20000, AccessType::kIFetch, 2, now).status,
            AccessTicket::Status::kHit);
  // The same line is NOT in the L1D: a data load misses L1 but hits LLC.
  const auto t = mem.access(0, 0x20000, AccessType::kLoad, 3, now);
  EXPECT_EQ(t.status, AccessTicket::Status::kHit);
  EXPECT_GT(t.complete_at, now + mem.params().l1_latency);
}

TEST(ClusterMemory, NextLinePrefetchServesSequentialStream) {
  HierarchyParams with_pf;  // prefetch on by default
  ClusterMemorySystem pf{with_pf, dram::DramConfig{}, ghz(1.0)};
  ClusterMemorySystem nopf{no_prefetch(), dram::DramConfig{}, ghz(1.0)};

  auto stream = [](ClusterMemorySystem& mem) {
    Cycle now = 0;
    std::uint64_t tag = 0;
    for (int i = 0; i < 4000; ++i) {
      for (int k = 0; k < 12; ++k) {  // give fills time to land
        mem.tick(now);
        (void)mem.drain_completions();
        ++now;
      }
      (void)mem.access(0, static_cast<Addr>(i) * 64, AccessType::kLoad,
                       ++tag, now);
    }
    const auto& s = mem.stats();
    return static_cast<double>(s.l1d_hits) /
           static_cast<double>(s.l1d_hits + s.l1d_misses);
  };
  const double hit_pf = stream(pf);
  const double hit_nopf = stream(nopf);
  EXPECT_GT(hit_pf, hit_nopf + 0.2);
  EXPECT_GT(pf.stats().prefetches_issued, 1000u);
}

TEST(ClusterMemory, UncoreLatencyScalesWithCoreClock) {
  // The same LLC hit costs more core cycles at a faster core clock.
  auto llc_hit_latency = [](Hertz f) {
    ClusterMemorySystem mem{no_prefetch(), dram::DramConfig{}, f};
    Cycle now = 0;
    (void)mem.access(0, 0x40000, AccessType::kLoad, 1, now);
    auto done = run_until_complete(mem, now, 1);
    const auto t = mem.access(1, 0x40000, AccessType::kLoad, 2, now);
    return t.complete_at - now;
  };
  EXPECT_GT(llc_hit_latency(ghz(2.0)), llc_hit_latency(mhz(250)));
}

TEST(ClusterMemory, StatsAccountingConsistent) {
  ClusterMemorySystem mem{HierarchyParams{}, dram::DramConfig{}, ghz(1.0)};
  Xoshiro256StarStar rng{21};
  Cycle now = 0;
  std::uint64_t tag = 0, issued = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    step(mem, now);
    (void)mem.drain_completions();
    const auto t = mem.access(0, rng.uniform_below(1 << 16) * 64, AccessType::kLoad,
                              ++tag, now);
    if (t.status == AccessTicket::Status::kRejected) {
      ++rejected;
    } else {
      ++issued;
    }
  }
  const auto& s = mem.stats();
  EXPECT_EQ(s.l1d_hits + s.l1d_misses, issued);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_LE(s.llc_misses, s.l1d_misses);
}

TEST(ClusterMemory, RejectsOutOfRangeCore) {
  ClusterMemorySystem mem{HierarchyParams{}, dram::DramConfig{}, ghz(1.0)};
  EXPECT_THROW((void)mem.access(4, 0x1000, AccessType::kLoad, 1, 0), ModelError);
}

}  // namespace
}  // namespace ntserv::cache
