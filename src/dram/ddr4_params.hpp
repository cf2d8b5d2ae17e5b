// DDR4 device geometry and timing parameters.
//
// Plays the role DRAMSim2 plays in the paper's infrastructure (Sec. IV):
// a cycle-level DDR4 model configured after Micron's 4Gbit x8 DDR4-1600
// datasheet. All timings are in memory-clock cycles (DDR4-1600: 800 MHz
// clock, 1600 MT/s data rate, tCK = 1.25 ns).
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"

namespace ntserv::dram {

/// JEDEC-style timing set, in memory-clock cycles unless noted.
struct Ddr4Timing {
  double tck_ns = 1.25;  ///< clock period (DDR4-1600)

  std::uint32_t cl = 11;     ///< CAS latency (read)
  std::uint32_t cwl = 9;     ///< CAS write latency
  std::uint32_t trcd = 11;   ///< ACT -> RD/WR
  std::uint32_t trp = 11;    ///< PRE -> ACT
  std::uint32_t tras = 28;   ///< ACT -> PRE (same bank)
  std::uint32_t trc = 39;    ///< ACT -> ACT (same bank) = tRAS + tRP
  std::uint32_t burst_len = 8;  ///< BL8 -> 4 clock data beats
  std::uint32_t tccd_s = 4;  ///< CAS -> CAS, different bank group
  std::uint32_t tccd_l = 5;  ///< CAS -> CAS, same bank group
  std::uint32_t trrd_s = 4;  ///< ACT -> ACT, different bank group
  std::uint32_t trrd_l = 5;  ///< ACT -> ACT, same bank group
  std::uint32_t tfaw = 20;   ///< four-activate window (per rank)
  std::uint32_t twr = 12;    ///< write recovery (end of write data -> PRE)
  std::uint32_t twtr = 6;    ///< write -> read turnaround (same rank)
  std::uint32_t trtp = 6;    ///< read -> PRE
  std::uint32_t trtrs = 2;   ///< rank-to-rank data-bus switch
  std::uint32_t trfc = 208;  ///< refresh cycle time (4Gbit)
  std::uint32_t trefi = 6240;  ///< average refresh interval (7.8 us)

  /// Data-bus beats occupied by one BL8 burst (DDR: burst_len / 2 clocks).
  [[nodiscard]] std::uint32_t burst_cycles() const { return burst_len / 2; }
  /// Memory clock frequency.
  [[nodiscard]] Hertz clock() const { return Hertz{1e9 / tck_ns}; }

  /// Micron 4Gbit x8 DDR4-1600 (the paper's configuration).
  static Ddr4Timing ddr4_1600();
  /// LPDDR4-1600-class timing (slightly slower core timings; used by the
  /// Sec. V-C LPDDR4 ablation together with the LPDDR4 power table).
  static Ddr4Timing lpddr4_1600();
};

/// Geometry of the memory system attached to the processor.
struct DramGeometry {
  int channels = 4;
  int ranks_per_channel = 4;
  int bank_groups = 4;
  int banks_per_group = 4;
  /// Rows per bank (4Gbit x8 part: 32K rows).
  std::uint32_t rows = 32768;
  /// Column *cache lines* per row: 1KB columns x8 chips = 8KB row buffer
  /// per rank = 128 64B lines.
  std::uint32_t lines_per_row = 128;

  [[nodiscard]] int banks_per_rank() const { return bank_groups * banks_per_group; }
  [[nodiscard]] int total_ranks() const { return channels * ranks_per_channel; }
  /// Total capacity in bytes (must come out at the paper's 64 GiB).
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(channels) * ranks_per_channel * banks_per_rank() *
           rows * lines_per_row * 64ull;
  }
};

struct DramConfig {
  Ddr4Timing timing = Ddr4Timing::ddr4_1600();
  DramGeometry geometry;
  /// Channel-local event skipping: after a tick with nothing to do, the
  /// channel computes its next possible action and fast-paths the ticks
  /// before it. Behaviour-identical (all state changes happen at
  /// timestamp boundaries); off forces the pure cycle-by-cycle path.
  bool event_skipping = true;
  /// Per-channel read-queue capacity.
  int read_queue_depth = 32;
  /// Per-channel write-queue capacity (writes drain when the queue passes
  /// the high watermark or the read queue is empty).
  int write_queue_depth = 32;
  int write_drain_high_watermark = 24;
  int write_drain_low_watermark = 8;

  void validate() const {
    NTSERV_EXPECTS(geometry.channels > 0 && geometry.ranks_per_channel > 0,
                   "DRAM needs at least one channel and rank");
    NTSERV_EXPECTS(geometry.bank_groups > 0 && geometry.banks_per_group > 0,
                   "DRAM needs at least one bank");
    NTSERV_EXPECTS(read_queue_depth > 0 && write_queue_depth > 0,
                   "queue depths must be positive");
    NTSERV_EXPECTS(write_drain_low_watermark < write_drain_high_watermark &&
                       write_drain_high_watermark <= write_queue_depth,
                   "write watermarks must satisfy low < high <= depth");
    NTSERV_EXPECTS(timing.trc >= timing.tras, "tRC must cover tRAS");
  }
};

}  // namespace ntserv::dram
