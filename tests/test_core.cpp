#include <gtest/gtest.h>

#include <functional>

#include "cache/cluster_memory.hpp"
#include "cpu/ooo_core.hpp"

namespace ntserv::cpu {
namespace {

/// Scripted uop source for controlled pipelines.
class ScriptedSource final : public UopSource {
 public:
  explicit ScriptedSource(std::function<MicroOp(std::uint64_t)> gen) : gen_(std::move(gen)) {}
  MicroOp next() override { return gen_(n_++); }

 private:
  std::function<MicroOp(std::uint64_t)> gen_;
  std::uint64_t n_ = 0;
};

/// All-ALU independent uops within one cache line of code.
MicroOp alu_op(std::uint64_t i) {
  MicroOp op;
  op.type = UopType::kIntAlu;
  op.pc = 0x1000 + (i % 8) * 4;
  op.src_dist[0] = 0;
  return op;
}

struct CoreRig {
  explicit CoreRig(std::function<MicroOp(std::uint64_t)> gen, CoreParams params = {},
                   Hertz clock = ghz(1.0))
      : source(std::move(gen)),
        memory(cache::HierarchyParams{}, dram::DramConfig{}, clock),
        core(params, 0, memory, source) {}

  void run(Cycle cycles) {
    for (Cycle c = 0; c < cycles; ++c) {
      memory.tick(now);
      for (const auto& d : memory.drain_completions()) {
        core.on_miss_completion(d.user_tag, d.done);
      }
      core.tick(now);
      ++now;
    }
  }

  ScriptedSource source;
  cache::ClusterMemorySystem memory;
  OooCore core;
  Cycle now = 0;
};

/// Run the same scripted stream through both issue schedulers and require
/// bit-identical stats — the wakeup-list path must be indistinguishable
/// from the polled reference scan.
void expect_schedulers_identical(const std::function<MicroOp(std::uint64_t)>& gen,
                                 Cycle cycles, CoreParams base = {},
                                 Hertz clock = ghz(1.0)) {
  CoreParams polled = base;
  polled.wakeup_list = false;
  CoreParams wakeup = base;
  wakeup.wakeup_list = true;
  CoreRig a{gen, polled, clock};
  CoreRig b{gen, wakeup, clock};
  a.run(cycles);
  b.run(cycles);
  const CoreStats& sa = a.core.stats();
  const CoreStats& sb = b.core.stats();
  EXPECT_EQ(sa.cycles, sb.cycles);
  EXPECT_EQ(sa.committed_total, sb.committed_total);
  EXPECT_EQ(sa.committed_user, sb.committed_user);
  EXPECT_EQ(sa.issued, sb.issued);
  EXPECT_EQ(sa.loads, sb.loads);
  EXPECT_EQ(sa.stores, sb.stores);
  EXPECT_EQ(sa.load_forwards, sb.load_forwards);
  EXPECT_EQ(sa.branches, sb.branches);
  EXPECT_EQ(sa.branch_mispredicts, sb.branch_mispredicts);
  EXPECT_EQ(sa.fetch_stall_cycles, sb.fetch_stall_cycles);
  EXPECT_EQ(sa.rob_full_cycles, sb.rob_full_cycles);
  const auto& ma = a.memory.stats();
  const auto& mb = b.memory.stats();
  EXPECT_EQ(ma.l1d_hits, mb.l1d_hits);
  EXPECT_EQ(ma.l1d_misses, mb.l1d_misses);
  EXPECT_EQ(ma.llc_misses, mb.llc_misses);
  EXPECT_EQ(ma.rejected, mb.rejected);
}

TEST(Core, IndependentAluStreamReachesFuLimit) {
  // Two integer ALUs bound a pure-ALU stream at IPC ~2 (not the 3-wide
  // front-end width).
  CoreRig rig{alu_op};
  rig.run(5000);
  EXPECT_GT(rig.core.stats().ipc(), 1.85);
  EXPECT_LT(rig.core.stats().ipc(), 2.1);
}

TEST(Core, MixedStreamApproachesFullWidth) {
  // Spreading work over the ALU and FP ports lets the 3-wide core commit
  // close to its width.
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    if (i % 3 == 1) op.type = UopType::kFpAlu;
    if (i % 6 == 5) op.type = UopType::kFpMul;
    return op;
  }};
  rig.run(6000);
  EXPECT_GT(rig.core.stats().ipc(), 2.5);
}

TEST(Core, SerialDependencyChainLimitsIpcToOne) {
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    op.src_dist[0] = 1;  // every uop depends on its predecessor
    return op;
  }};
  rig.run(5000);
  EXPECT_LT(rig.core.stats().ipc(), 1.1);
  EXPECT_GT(rig.core.stats().ipc(), 0.8);
}

TEST(Core, LongLatencyFuSerializes) {
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    op.type = UopType::kIntDiv;  // 12-cycle unpipelined
    op.src_dist[0] = 1;
    return op;
  }};
  rig.run(6000);
  EXPECT_LT(rig.core.stats().ipc(), 0.12);
}

TEST(Core, FpThroughputLimitedByUnits) {
  // Independent FP adds: 2 FP units, pipelined -> IPC caps at 2.
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    op.type = UopType::kFpAlu;
    return op;
  }};
  rig.run(5000);
  EXPECT_GT(rig.core.stats().ipc(), 1.7);
  EXPECT_LT(rig.core.stats().ipc(), 2.1);
}

TEST(Core, UipcCountsOnlyUserInstructions) {
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    op.is_user = (i % 2) == 0;  // half OS
    return op;
  }};
  rig.run(5000);
  const auto& s = rig.core.stats();
  EXPECT_NEAR(s.uipc(), s.ipc() / 2.0, 0.05);
  EXPECT_NEAR(static_cast<double>(s.committed_user),
              static_cast<double>(s.committed_total) / 2.0,
              static_cast<double>(s.committed_total) * 0.02);
}

TEST(Core, MispredictsCostThroughput) {
  auto branchy = [](double predictable) {
    return [predictable](std::uint64_t i) {
      MicroOp op = alu_op(i);
      if (i % 4 == 3) {
        op.type = UopType::kBranch;
        // Unpredictable: direction from a hash of the index.
        const std::uint64_t h = i * 0x9E3779B97F4A7C15ull;
        op.branch_taken = predictable > 0.5 ? true : ((h >> 37) & 1) != 0;
      }
      return op;
    };
  };
  CoreRig good{branchy(1.0)};
  CoreRig bad{branchy(0.0)};
  good.run(8000);
  bad.run(8000);
  EXPECT_GT(good.core.stats().ipc(), bad.core.stats().ipc() * 1.3);
  EXPECT_GT(bad.core.stats().branch_mispredicts, 100u);
}

TEST(Core, L1ResidentLoadsBarelyStall) {
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    if (i % 3 == 0) {
      op.type = UopType::kLoad;
      op.mem_addr = 0x100000 + (i % 64) * 8;  // few hot lines
    }
    return op;
  }};
  rig.run(8000);
  EXPECT_GT(rig.core.stats().ipc(), 1.2);
  EXPECT_GT(rig.core.stats().loads, 1000u);
}

TEST(Core, DramBoundLoadsCollapseIpc) {
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    if (i % 3 == 0) {
      op.type = UopType::kLoad;
      op.mem_addr = (i * 131071) % (1ull << 32);  // cold random
      op.src_dist[0] = 3;                         // chained to previous load
    }
    return op;
  }};
  rig.run(20000);
  EXPECT_LT(rig.core.stats().ipc(), 0.5);
}

TEST(Core, StoreToLoadForwarding) {
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    if (i % 2 == 0) {
      op.type = UopType::kStore;
      op.mem_addr = 0x200000 + (i % 4) * 8;
    } else {
      op.type = UopType::kLoad;
      op.mem_addr = 0x200000 + ((i - 1) % 4) * 8;  // read the prior store
    }
    return op;
  }};
  rig.run(8000);
  EXPECT_GT(rig.core.stats().load_forwards, 500u);
}

TEST(Core, ForwardingSkipsUnresolvedStoreForOlderIssuedOne) {
  // Each 8-uop group: a cold-miss load M, a store S1 to word W, a store S2
  // to W whose operand is M (so its address stays unknown until the DRAM
  // miss returns), then a load L of W. L's youngest older same-word store
  // is the still-waiting S2: L must skip it and forward from S1. Two
  // stores per group fill the 16-entry store queue, and the run commits
  // thousands of uops, wrapping the ROB ring many times. Both schedulers
  // share the forwarding search, so both must hit the same exact counts.
  const auto gen = [](std::uint64_t i) {
    MicroOp op = alu_op(i);
    const Addr word = 0x500000 + ((i / 8) % 64) * 8;
    switch (i % 8) {
      case 0:
        op.type = UopType::kLoad;
        op.mem_addr = (1ull << 32) + (i * 131071) % (1ull << 30);  // cold miss M
        break;
      case 1:
        op.type = UopType::kStore;  // S1: address known at dispatch
        op.mem_addr = word;
        break;
      case 2:
        op.type = UopType::kStore;  // S2: address waits on M
        op.mem_addr = word;
        op.src_dist[0] = 2;
        break;
      case 3:
        op.type = UopType::kLoad;  // L: reads W
        op.mem_addr = word;
        break;
      default: break;
    }
    return op;
  };
  for (const bool wakeup : {false, true}) {
    CoreParams params;
    params.wakeup_list = wakeup;
    CoreRig rig{gen, params};
    while (rig.core.stats().committed_total < 6000 && rig.now < 200'000) rig.run(1);
    const CoreStats& s = rig.core.stats();
    EXPECT_EQ(s.load_forwards, 730u) << "wakeup=" << wakeup;
    EXPECT_EQ(s.committed_total, 6000u) << "wakeup=" << wakeup;
    EXPECT_EQ(s.cycles, 12462u) << "wakeup=" << wakeup;
  }
}

TEST(Core, StoresDrainThroughBuffer) {
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    if (i % 4 == 0) {
      op.type = UopType::kStore;
      op.mem_addr = 0x300000 + (i % 512) * 8;
    }
    return op;
  }};
  rig.run(10000);
  EXPECT_GT(rig.core.stats().stores, 1000u);
  // Stores reached the memory system (L1D writes counted as hits/misses).
  const auto& ms = rig.memory.stats();
  EXPECT_GT(ms.l1d_hits + ms.l1d_misses, 1000u);
}

TEST(Core, RobWindowBoundsInFlightWork) {
  CoreParams small;
  small.rob_entries = 8;
  CoreRig rig{[](std::uint64_t i) {
    MicroOp op = alu_op(i);
    op.src_dist[0] = 1;
    if (i % 8 == 0) {
      op.type = UopType::kLoad;
      op.mem_addr = (i * 65537) % (1ull << 31);
    }
    return op;
  }, small};
  rig.run(10000);
  // Tiny window + misses: heavy ROB-full or fetch-stall pressure, IPC low.
  EXPECT_LT(rig.core.stats().ipc(), 0.8);
}

// ---- wakeup-list edge cases the polled scan used to hide ----

TEST(CoreWakeup, SameCycleForwardingChainMatchesPolledPath) {
  // store -> dependent load (store-to-load forwarded at forward_latency)
  // -> dependent ALU: the load's wake fires from the forwarding site the
  // same cycle the store issues, and the ALU must then wake exactly
  // forward_latency later.
  expect_schedulers_identical(
      [](std::uint64_t i) {
        MicroOp op = alu_op(i);
        switch (i % 4) {
          case 0:
            op.type = UopType::kStore;
            op.mem_addr = 0x400000 + (i % 16) * 8;
            break;
          case 1:
            op.type = UopType::kLoad;
            op.mem_addr = 0x400000 + ((i - 1) % 16) * 8;  // forwarded
            op.src_dist[0] = 1;  // register-dependent on the store
            break;
          case 2:
            op.src_dist[0] = 1;  // consumes the forwarded load
            break;
          default: break;
        }
        return op;
      },
      8000);
}

TEST(CoreWakeup, WidthLimitedPopsLeaveEntriesQueued) {
  // One unpipelined 12-cycle divide fans out to seven dependents: they
  // all wake the same cycle, more than the 3-wide issue stage can pop,
  // so the ready queue must carry the rest into later cycles.
  expect_schedulers_identical(
      [](std::uint64_t i) {
        MicroOp op = alu_op(i);
        if (i % 8 == 0) {
          op.type = UopType::kIntDiv;
        } else {
          op.src_dist[0] = static_cast<std::uint16_t>(i % 8);  // all on the divide
        }
        return op;
      },
      8000);
}

TEST(CoreWakeup, MissCompletionRewakesPreciselyNotByStaleBound) {
  // Two independent cold misses in flight: the polled path's completion
  // walk re-bounds *every* waiting entry to the first miss's done cycle
  // (a stale bound for entries chained to the second miss) and recovers
  // by re-deriving readiness; the wakeup list instead wakes exactly the
  // completed load's consumers. Both must land on identical metrics.
  expect_schedulers_identical(
      [](std::uint64_t i) {
        MicroOp op = alu_op(i);
        switch (i % 6) {
          case 0:
            op.type = UopType::kLoad;
            op.mem_addr = (i * 131071) % (1ull << 31);  // cold miss A
            break;
          case 1:
            op.type = UopType::kLoad;
            op.mem_addr = (1ull << 31) + (i * 65537) % (1ull << 30);  // cold miss B
            break;
          case 2:
            op.src_dist[0] = 1;  // chained to miss B
            break;
          case 3:
            op.src_dist[0] = 3;  // chained to miss A
            break;
          default: break;
        }
        return op;
      },
      30000);
}

TEST(CoreWakeup, RedirectKeepsQueuedWakeEventsDraining) {
  // Mispredict-heavy stream with live dependency chains: the redirect
  // bubble blocks fetch while already-queued wake events keep the
  // backend draining (trace-driven model: no squash, wrong-path work is
  // charged as the bubble). Queued wakes must survive the redirect.
  expect_schedulers_identical(
      [](std::uint64_t i) {
        MicroOp op = alu_op(i);
        if (i % 5 == 4) {
          op.type = UopType::kBranch;
          const std::uint64_t h = i * 0x9E3779B97F4A7C15ull;
          op.branch_taken = ((h >> 37) & 1) != 0;  // unpredictable
        } else {
          op.src_dist[0] = static_cast<std::uint16_t>(1 + (i % 3));
        }
        return op;
      },
      10000);
}

TEST(Core, ResetStatsClearsCounters) {
  CoreRig rig{alu_op};
  rig.run(1000);
  EXPECT_GT(rig.core.stats().committed_total, 0u);
  rig.core.reset_stats();
  EXPECT_EQ(rig.core.stats().committed_total, 0u);
  EXPECT_EQ(rig.core.stats().cycles, 0u);
  rig.run(100);
  EXPECT_GT(rig.core.stats().committed_total, 0u);
}

TEST(Core, IssueUtilizationBounded) {
  CoreRig rig{alu_op};
  rig.run(3000);
  const double u = rig.core.stats().issue_utilization(3);
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST(Core, ValidatesParams) {
  cache::ClusterMemorySystem mem{cache::HierarchyParams{}, dram::DramConfig{}, ghz(1.0)};
  ScriptedSource src{alu_op};
  CoreParams bad;
  bad.width = 0;
  EXPECT_THROW(OooCore(bad, 0, mem, src), ModelError);
}

}  // namespace
}  // namespace ntserv::cpu
