#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "dram/dram_system.hpp"

namespace ntserv::dram {
namespace {

/// Drive the system until idle or `limit` cycles; collect completions.
std::vector<MemResponse> drain(DramSystem& mem, Cycle limit = 200000) {
  std::vector<MemResponse> all;
  for (Cycle c = 0; c < limit && !mem.idle(); ++c) {
    mem.tick();
    auto part = mem.drain_completions();
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

TEST(Dram, SingleReadLatencyBounds) {
  DramSystem mem;
  ASSERT_TRUE(mem.enqueue(1, 0x1000, false));
  const auto done = drain(mem);
  ASSERT_EQ(done.size(), 1u);
  const auto& t = mem.config().timing;
  // Closed bank: at least ACT + tRCD + CL + burst.
  EXPECT_GE(done[0].completion, static_cast<Cycle>(t.trcd + t.cl + t.burst_cycles()));
  EXPECT_LE(done[0].completion, 100u);
}

TEST(Dram, AllRequestsComplete) {
  DramSystem mem;
  Xoshiro256StarStar rng{17};
  std::set<std::uint64_t> outstanding;
  std::uint64_t id = 0;
  std::vector<MemResponse> done;
  for (Cycle c = 0; c < 100000; ++c) {
    if (c % 5 == 0 && id < 5000) {
      const Addr a = rng.uniform_below(1ull << 28) & ~63ull;
      const bool wr = rng.bernoulli(0.3);
      if (mem.enqueue(id, a, wr)) {
        if (!wr) outstanding.insert(id);
        ++id;
      }
    }
    mem.tick();
    for (const auto& r : mem.drain_completions()) {
      EXPECT_TRUE(outstanding.erase(r.id)) << "spurious completion " << r.id;
    }
  }
  auto rest = drain(mem);
  for (const auto& r : rest) outstanding.erase(r.id);
  EXPECT_TRUE(outstanding.empty());
  EXPECT_TRUE(mem.idle());
}

TEST(Dram, CompletionsAreMonotonicInTime) {
  DramSystem mem;
  std::uint64_t id = 0;
  Cycle last = 0;
  for (Cycle c = 0; c < 20000; ++c) {
    if (c % 11 == 0) {
      (void)mem.enqueue(id, (id * 4096 + 4096) & ((1ull << 28) - 1), false);
      ++id;
    }
    mem.tick();
    for (const auto& r : mem.drain_completions()) {
      EXPECT_GE(r.completion, last);
      last = r.completion;
    }
  }
}

TEST(Dram, RowHitsForSequentialTraffic) {
  // Default mapping places the column right above the channel bits:
  // consecutive lines on one channel fill a row.
  DramSystem mem;
  std::uint64_t id = 0;
  // March through one row's worth of lines on one channel.
  for (int i = 0; i < 64; ++i) {
    while (!mem.enqueue(id, static_cast<Addr>(i) * 64 * 4 /*stay on channel 0*/, false)) {
      mem.tick();
    }
    ++id;
  }
  drain(mem);
  EXPECT_GT(mem.stats().row_hit_rate, 0.8);
}

TEST(Dram, RandomTrafficHasLowerRowHitRate) {
  DramSystem seq, rnd;
  Xoshiro256StarStar rng{23};
  std::uint64_t id = 0;
  for (int i = 0; i < 2000; ++i) {
    while (!seq.enqueue(id, static_cast<Addr>(i) * 64, false)) seq.tick();
    const Addr a = rng.uniform_below(1ull << 30) & ~63ull;
    while (!rnd.enqueue(id, a, false)) rnd.tick();
    ++id;
  }
  drain(seq);
  drain(rnd);
  EXPECT_GT(seq.stats().row_hit_rate, rnd.stats().row_hit_rate);
}

TEST(Dram, RefreshHappensAtTrefiRate) {
  DramSystem mem;
  const Cycle cycles = 100000;
  for (Cycle c = 0; c < cycles; ++c) mem.tick();
  const auto expected = cycles / mem.config().timing.trefi *
                        static_cast<Cycle>(mem.config().geometry.total_ranks());
  EXPECT_NEAR(static_cast<double>(mem.stats().refreshes), static_cast<double>(expected),
              static_cast<double>(expected) * 0.15);
}

TEST(Dram, BandwidthApproachesPeakForStreaming) {
  DramSystem mem;
  std::uint64_t id = 0;
  Addr a = 0;
  std::uint64_t reads = 0;
  const Cycle cycles = 50000;
  for (Cycle c = 0; c < cycles; ++c) {
    // Saturate: offer sequential lines to all channels every cycle.
    for (int k = 0; k < 4; ++k) {
      if (mem.enqueue(id, a, false)) {
        ++id;
        a += 64;
      }
    }
    mem.tick();
    reads += mem.drain_completions().size();
  }
  // Peak data bus: 4 channels x 1 line per 4 cycles = 1 line/cycle.
  const double utilization = static_cast<double>(reads) / static_cast<double>(cycles);
  EXPECT_GT(utilization, 0.7);
}

TEST(Dram, WriteDrainHysteresis) {
  DramSystem mem;
  std::uint64_t id = 0;
  // Fill the write queue of channel 0 beyond the high watermark.
  int accepted = 0;
  for (int i = 0; i < 800; ++i) {
    if (mem.enqueue(id++, static_cast<Addr>(i) * 64 * 4, true)) ++accepted;
    mem.tick();
  }
  drain(mem);
  EXPECT_EQ(static_cast<std::uint64_t>(accepted), mem.stats().writes);
  EXPECT_GT(mem.stats().writes, 100u);
}

TEST(Dram, QueueBackpressure) {
  DramConfig cfg;
  cfg.read_queue_depth = 4;
  DramSystem mem{cfg};
  int accepted = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (mem.enqueue(i, i * 64 * 4, false)) ++accepted;  // all to channel 0
  }
  EXPECT_LE(accepted, 4 + 1);  // queue depth (plus possible same-cycle issue)
}

TEST(Dram, ForwardingFromWriteQueue) {
  DramSystem mem;
  ASSERT_TRUE(mem.enqueue(1, 0x40000, true));
  ASSERT_TRUE(mem.enqueue(2, 0x40000, false));  // read of the queued write
  bool got = false;
  for (Cycle c = 0; c < 1000 && !got; ++c) {
    mem.tick();
    for (const auto& r : mem.drain_completions()) {
      if (r.id == 2) {
        got = true;
        EXPECT_LE(r.completion, 4u);  // served from the queue, near-instant
      }
    }
  }
  EXPECT_TRUE(got);
}

TEST(Dram, CompletesMixedTraffic) {
  DramSystem mem;
  Xoshiro256StarStar rng{29};
  std::uint64_t id = 0, issued_reads = 0, completed = 0;
  for (Cycle c = 0; c < 60000; ++c) {
    if (c % 6 == 0) {
      const bool wr = rng.bernoulli(0.25);
      if (mem.enqueue(id, rng.uniform_below(1ull << 29) & ~63ull, wr)) {
        if (!wr) ++issued_reads;
        ++id;
      }
    }
    mem.tick();
    completed += mem.drain_completions().size();
  }
  completed += drain(mem).size();
  EXPECT_EQ(completed, issued_reads);
}

TEST(Dram, StatsResetReportsDeltas) {
  DramSystem mem;
  std::uint64_t id = 0;
  for (int i = 0; i < 100; ++i) {
    while (!mem.enqueue(id, static_cast<Addr>(i) * 4096, false)) mem.tick();
    ++id;
  }
  drain(mem);
  EXPECT_EQ(mem.stats().reads, 100u);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().reads, 0u);
  while (!mem.enqueue(id, 0x123400, false)) mem.tick();
  drain(mem);
  EXPECT_EQ(mem.stats().reads, 1u);
}

TEST(Dram, ConfigValidation) {
  DramConfig cfg;
  cfg.write_drain_low_watermark = 30;
  cfg.write_drain_high_watermark = 20;
  EXPECT_THROW(DramSystem{cfg}, ModelError);
  cfg = DramConfig{};
  cfg.geometry.channels = 0;
  EXPECT_THROW(DramSystem{cfg}, ModelError);
}

TEST(Dram, Lpddr4TimingSlower) {
  const auto ddr4 = Ddr4Timing::ddr4_1600();
  const auto lp = Ddr4Timing::lpddr4_1600();
  EXPECT_GT(lp.cl, ddr4.cl);
  EXPECT_GT(lp.trcd, ddr4.trcd);
  EXPECT_EQ(lp.clock().value(), ddr4.clock().value());
}

}  // namespace
}  // namespace ntserv::dram
