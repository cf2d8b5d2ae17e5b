// Front-end of the DDR4 memory system: address interleaving across
// channels, per-channel timing simulation, and system-level statistics.
//
// Fills the role DRAMSim2 fills in the paper's Flexus setup (Sec. IV):
// the LLC miss path enqueues line requests here and receives completion
// callbacks in memory-clock time; the simulation engine converts between
// the core and memory clock domains.
#pragma once

#include <memory>
#include <vector>

#include "dram/channel.hpp"

namespace ntserv::dram {

struct DramSystemStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  double row_hit_rate = 0.0;
  double avg_read_latency_cycles = 0.0;
  std::uint64_t refreshes = 0;
  std::uint64_t forwarded_reads = 0;  ///< reads serviced from a queued write
};

/// The whole multi-channel memory system, ticked on the memory clock.
class DramSystem {
 public:
  explicit DramSystem(DramConfig config = {});

  DramSystem(const DramSystem&) = delete;
  DramSystem& operator=(const DramSystem&) = delete;

  [[nodiscard]] const DramConfig& config() const { return config_; }
  [[nodiscard]] Hertz clock() const { return config_.timing.clock(); }
  [[nodiscard]] Cycle now() const { return now_; }

  /// Channel a line address maps to (for back-pressure checks).
  [[nodiscard]] int channel_of(Addr line_addr) const;

  /// True if the owning channel can take this request now.
  [[nodiscard]] bool can_accept(Addr line_addr, bool is_write) const;

  /// Enqueue one line-granularity transaction. Returns false (and drops
  /// nothing) when the channel queue is full.
  bool enqueue(std::uint64_t id, Addr line_addr, bool is_write);

  /// Advance one memory-clock cycle on every channel. Returns true when
  /// any channel did anything (the cluster's skip gate).
  bool tick();

  /// Collect read completions from all channels.
  [[nodiscard]] std::vector<MemResponse> drain_completions();

  /// Allocation-free drain: append all channels' completions to `out`.
  void drain_completions_into(std::vector<MemResponse>& out);

  /// Earliest memory cycle >= now() at which any channel might act; a
  /// conservative (never-late) bound for the event-skipping kernel.
  [[nodiscard]] Cycle next_event_cycle() const;

  /// Jump the memory clock forward over a window verified (via
  /// next_event_cycle) to contain no channel activity. Channel state is
  /// purely timestamp-based, so an event-free window needs no per-cycle
  /// work at all.
  void skip(Cycle cycles) { now_ += cycles; }

  /// True when every queue and in-flight list is empty.
  [[nodiscard]] bool idle() const;

  [[nodiscard]] DramSystemStats stats() const;
  /// Reset statistics counters (measurement-window control), keeping state.
  void reset_stats();

 private:
  DramConfig config_;
  AddressMapper mapper_;
  std::vector<std::unique_ptr<Channel>> channels_;
  Cycle now_ = 0;
  // Snapshot of counters at the last reset_stats(), to report deltas.
  std::vector<ChannelStats> stats_baseline_;
};

}  // namespace ntserv::dram
