#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "dram/address_map.hpp"

namespace ntserv::dram {
namespace {

TEST(AddressMap, RoundTripIdentity) {
  DramGeometry g;
  const AddressMapper map{g};
  Xoshiro256StarStar rng{3};
  for (int i = 0; i < 20000; ++i) {
    const Addr a = (rng.uniform_below(g.capacity_bytes() / 64)) * 64;
    const DramCoord c = map.decode(a);
    EXPECT_EQ(map.encode(c), a);
  }
}

TEST(AddressMap, CoordinatesInRange) {
  DramGeometry g;
  const AddressMapper map{g};
  Xoshiro256StarStar rng{5};
  for (int i = 0; i < 20000; ++i) {
    const Addr a = (rng.uniform_below(g.capacity_bytes() / 64)) * 64;
    const DramCoord c = map.decode(a);
    EXPECT_LT(c.channel, g.channels);
    EXPECT_LT(c.rank, g.ranks_per_channel);
    EXPECT_LT(c.bank_group, g.bank_groups);
    EXPECT_LT(c.bank, g.banks_per_group);
    EXPECT_LT(c.row, g.rows);
    EXPECT_LT(c.column, g.lines_per_row);
    EXPECT_LT(c.flat_bank(g), g.banks_per_rank());
  }
}

TEST(AddressMap, DistinctLinesDistinctCoords) {
  DramGeometry g;
  g.rows = 64;  // shrink so exhaustive enumeration is feasible
  g.lines_per_row = 8;
  g.ranks_per_channel = 2;
  const AddressMapper map{g};
  std::set<std::tuple<int, int, int, int, std::uint32_t, std::uint32_t>> seen;
  const std::uint64_t lines = g.capacity_bytes() / 64;
  for (std::uint64_t l = 0; l < lines; ++l) {
    const DramCoord c = map.decode(l * 64);
    const auto key = std::make_tuple(c.channel, c.rank, c.bank_group, c.bank, c.row, c.column);
    EXPECT_TRUE(seen.insert(key).second) << "aliased line " << l;
  }
  EXPECT_EQ(seen.size(), lines);
}

TEST(AddressMap, ChannelInterleavingByLine) {
  // Consecutive lines hit consecutive channels.
  const AddressMapper map{DramGeometry{}};
  for (Addr line = 0; line < 16; ++line) {
    EXPECT_EQ(map.decode(line * 64).channel, static_cast<int>(line % 4));
  }
}

TEST(AddressMap, PaperCapacityIs64GiB) {
  EXPECT_EQ(DramGeometry{}.capacity_bytes(), 64ull * kGiB);
}

TEST(AddressMap, SubLineBitsIgnored) {
  const AddressMapper map{DramGeometry{}};
  const DramCoord a = map.decode(4096);
  const DramCoord b = map.decode(4096 + 63);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ntserv::dram
