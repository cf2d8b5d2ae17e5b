// Physical-address decomposition for the DRAM system.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "dram/ddr4_params.hpp"

namespace ntserv::dram {

/// Decoded DRAM coordinates of one cache-line address.
struct DramCoord {
  int channel = 0;
  int rank = 0;
  int bank_group = 0;
  int bank = 0;  ///< bank index within its group
  /// Flat bank index within the rank, cached at decode time so the channel
  /// scheduler never recomputes it on the per-cycle path.
  int flat = 0;
  std::uint32_t row = 0;
  std::uint32_t column = 0;  ///< line-sized column within the row

  /// Flat bank index within the rank.
  [[nodiscard]] int flat_bank(const DramGeometry& g) const {
    return bank_group * g.banks_per_group + bank;
  }

  bool operator==(const DramCoord&) const = default;
};

/// Maps line addresses to DRAM coordinates, line-interleaved as
/// row : rank : bank-group : bank : column : channel (the lowest digits
/// change fastest, which maximizes channel parallelism, the common server
/// default). The mapping is a pure bit-slicing function: it never aliases
/// two different line addresses within the capacity to the same
/// coordinates (verified by the address-map round-trip tests).
class AddressMapper {
 public:
  explicit AddressMapper(DramGeometry geometry);

  [[nodiscard]] DramCoord decode(Addr line_addr) const;
  /// Inverse of decode (round-trip identity on line-aligned addresses).
  [[nodiscard]] Addr encode(const DramCoord& c) const;

  [[nodiscard]] const DramGeometry& geometry() const { return geometry_; }

 private:
  DramGeometry geometry_;
};

}  // namespace ntserv::dram
