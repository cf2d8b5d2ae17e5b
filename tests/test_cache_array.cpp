#include <gtest/gtest.h>

#include "cache/cache_array.hpp"

namespace ntserv::cache {
namespace {

CacheArrayParams small_cache() {
  // 4 sets x 2 ways x 64B = 512B.
  return {512, 2, false};
}

Addr addr_of(std::size_t set, std::size_t tag_round) {
  // Same set, different tags per round (4 sets).
  return static_cast<Addr>((tag_round * 4 + set) * kCacheLineBytes);
}

TEST(CacheArray, MissThenHit) {
  CacheArray c{small_cache()};
  EXPECT_FALSE(c.probe(0x1000).has_value());
  c.insert(0x1000, false);
  EXPECT_TRUE(c.probe(0x1000).has_value());
  EXPECT_EQ(c.valid_count(), 1u);
}

TEST(CacheArray, SubLineAddressesAlias) {
  CacheArray c{small_cache()};
  c.insert(0x1000, false);
  EXPECT_TRUE(c.probe(0x1004).has_value());
  EXPECT_TRUE(c.probe(0x103F).has_value());
  EXPECT_FALSE(c.probe(0x1040).has_value());
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed) {
  CacheArray c{small_cache()};
  const Addr a = addr_of(0, 0), b = addr_of(0, 1), d = addr_of(0, 2);
  c.insert(a, false);
  c.insert(b, false);
  (void)c.probe(a);  // a becomes MRU
  const auto ev = c.insert(d, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, b);
  EXPECT_TRUE(c.probe(a).has_value());
  EXPECT_FALSE(c.probe(b).has_value());
}

TEST(CacheArray, EvictionReportsDirtyAndMeta) {
  CacheArray c{small_cache()};
  c.insert(addr_of(1, 0), true, 0xAB);
  c.insert(addr_of(1, 1), false);
  const auto ev = c.insert(addr_of(1, 2), false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, addr_of(1, 0));
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.meta, 0xABu);
}

TEST(CacheArray, InsertPrefersInvalidWays) {
  CacheArray c{small_cache()};
  c.insert(addr_of(2, 0), false);
  const auto ev = c.insert(addr_of(2, 1), false);
  EXPECT_FALSE(ev.valid);
}

TEST(CacheArray, DoubleInsertThrows) {
  CacheArray c{small_cache()};
  c.insert(0x2000, false);
  EXPECT_THROW(c.insert(0x2000, false), ModelError);
}

TEST(CacheArray, InvalidateReturnsState) {
  CacheArray c{small_cache()};
  c.insert(0x3000, true, 7);
  const auto inv = c.invalidate(0x3000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(inv->dirty);
  EXPECT_EQ(inv->meta, 7u);
  EXPECT_FALSE(c.probe(0x3000).has_value());
  EXPECT_FALSE(c.invalidate(0x3000).has_value());
  EXPECT_EQ(c.valid_count(), 0u);
}

TEST(CacheArray, DirtyAndMetaAccessors) {
  CacheArray c{small_cache()};
  c.insert(0x4000, false, 1);
  const auto ref = c.probe(0x4000);
  ASSERT_TRUE(ref.has_value());
  EXPECT_FALSE(c.is_dirty(*ref));
  c.set_dirty(*ref, true);
  EXPECT_TRUE(c.is_dirty(*ref));
  EXPECT_EQ(c.meta(*ref), 1u);
  c.set_meta(*ref, 0x55);
  EXPECT_EQ(c.meta(*ref), 0x55u);
  EXPECT_EQ(c.line_addr_of(*ref), 0x4000u);
}

TEST(CacheArray, ProtectedVictimSelectionSkipsSharedLines) {
  CacheArrayParams p = small_cache();
  p.protect_nonzero_meta = true;
  CacheArray c{p};
  c.insert(addr_of(0, 0), false, /*meta=*/1);  // "has L1 copy"
  c.insert(addr_of(0, 1), false, /*meta=*/0);
  (void)c.probe(addr_of(0, 1));  // meta-0 line is MRU
  const auto ev = c.insert(addr_of(0, 2), false);
  ASSERT_TRUE(ev.valid);
  // Without protection LRU would evict addr_of(0,0); protection picks the
  // meta-0 line even though it is MRU.
  EXPECT_EQ(ev.line_addr, addr_of(0, 1));
}

TEST(CacheArray, ProtectionFallsBackWhenAllShared) {
  CacheArrayParams p = small_cache();
  p.protect_nonzero_meta = true;
  CacheArray c{p};
  c.insert(addr_of(0, 0), false, 1);
  c.insert(addr_of(0, 1), false, 2);
  const auto ev = c.insert(addr_of(0, 2), false);
  EXPECT_TRUE(ev.valid);  // someone still got evicted
}

TEST(CacheArray, WorkingSetWithinCapacityAlwaysHits) {
  CacheArray c{{8 * kKiB, 4, false}};
  // 8KB / 64B = 128 lines: a 64-line working set fits.
  for (Addr l = 0; l < 64; ++l) {
    if (!c.probe(l * 64)) c.insert(l * 64, false);
  }
  int misses = 0;
  for (int round = 0; round < 10; ++round) {
    for (Addr l = 0; l < 64; ++l) {
      if (!c.probe(l * 64)) {
        ++misses;
        c.insert(l * 64, false);
      }
    }
  }
  EXPECT_EQ(misses, 0);
}

TEST(CacheArray, ThrashingSetEvicts) {
  CacheArray c{small_cache()};
  // 3 lines in a 2-way set cannot all stay resident.
  int misses = 0;
  for (int round = 0; round < 30; ++round) {
    for (int t = 0; t < 3; ++t) {
      const Addr a = addr_of(0, static_cast<std::size_t>(t));
      if (!c.probe(a)) {
        ++misses;
        c.insert(a, false);
      }
    }
  }
  EXPECT_GT(misses, 10);
}

TEST(CacheArray, ValidatesGeometry) {
  EXPECT_THROW(CacheArray({0, 2, false}), ModelError);
  EXPECT_THROW(CacheArray({1000, 3, false}), ModelError);
  // Non-power-of-two set count: 3 * 64 * 1.
  EXPECT_THROW(CacheArray({192, 1, false}), ModelError);
}

TEST(CacheArray, PaperConfigurations) {
  // 32KB 2-way L1 and 4MB 16-way LLC construct with sane set counts.
  const CacheArray l1{{32 * kKiB, 2, false}};
  EXPECT_EQ(l1.num_sets(), 256u);
  const CacheArray llc{{4 * kMiB, 16, true}};
  EXPECT_EQ(llc.num_sets(), 4096u);
}

}  // namespace
}  // namespace ntserv::cache
