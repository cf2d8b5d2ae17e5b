#include "dram/address_map.hpp"

#include "common/error.hpp"

namespace ntserv::dram {

namespace {

/// Pop the low `count` values off `v` (v is a mixed-radix digit stream).
std::uint64_t take(std::uint64_t& v, std::uint64_t count) {
  const std::uint64_t digit = v % count;
  v /= count;
  return digit;
}

}  // namespace

AddressMapper::AddressMapper(DramGeometry geometry) : geometry_(geometry) {
  NTSERV_EXPECTS(geometry_.capacity_bytes() > 0, "empty DRAM geometry");
}

DramCoord AddressMapper::decode(Addr line_addr) const {
  const auto& g = geometry_;
  std::uint64_t v = line_addr / kCacheLineBytes;
  DramCoord c;
  c.channel = static_cast<int>(take(v, static_cast<std::uint64_t>(g.channels)));
  c.column = static_cast<std::uint32_t>(take(v, g.lines_per_row));
  c.bank = static_cast<int>(take(v, static_cast<std::uint64_t>(g.banks_per_group)));
  c.bank_group = static_cast<int>(take(v, static_cast<std::uint64_t>(g.bank_groups)));
  c.rank = static_cast<int>(take(v, static_cast<std::uint64_t>(g.ranks_per_channel)));
  c.row = static_cast<std::uint32_t>(v % g.rows);
  c.flat = c.flat_bank(g);
  return c;
}

Addr AddressMapper::encode(const DramCoord& c) const {
  const auto& g = geometry_;
  std::uint64_t v = c.row;
  v = v * g.ranks_per_channel + static_cast<std::uint64_t>(c.rank);
  v = v * g.bank_groups + static_cast<std::uint64_t>(c.bank_group);
  v = v * g.banks_per_group + static_cast<std::uint64_t>(c.bank);
  v = v * g.lines_per_row + c.column;
  v = v * g.channels + static_cast<std::uint64_t>(c.channel);
  return v * kCacheLineBytes;
}

}  // namespace ntserv::dram
