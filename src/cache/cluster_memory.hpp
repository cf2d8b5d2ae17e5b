// Cluster memory system: per-core L1I/L1D, shared banked LLC with an
// in-LLC MESI directory, crossbar timing, and the DRAM clock-domain bridge.
//
// Models one 4-core cluster of the paper's scale-out processor (Sec. II-B,
// IV): 32KB 2-way L1I/L1D per core, a unified 4MB 16-way 4-bank inclusive
// LLC, and a cache-coherent crossbar. Coherence state is tracked exactly
// (directory bitmasks, single-owner invariant); transaction timing uses
// fixed pipeline latencies plus real bank/bus occupancy and the cycle-level
// DRAM model underneath — the standard mid-fidelity decomposition for
// throughput studies (the paper's UIPS metric).
//
// Clock domains: cores run at the DVFS frequency f_core, the LLC/crossbar
// uncore and DRAM at fixed clocks. All latencies returned to the core are
// in *core* cycles; tick() advances the memory clock by the configured
// ratio, so lowering f_core makes memory relatively faster — the mechanism
// behind the sub-linear UIPS(f) of memory-bound workloads (paper Fig. 3).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "dram/dram_system.hpp"

namespace ntserv::cache {

enum class AccessType { kIFetch, kLoad, kStore };

struct HierarchyParams {
  int cores = 4;
  CacheArrayParams l1i{32 * kKiB, 2, false};
  CacheArrayParams l1d{32 * kKiB, 2, false};
  /// Inclusive LLC with directory-aware victim selection (see
  /// CacheArrayParams::protect_nonzero_meta).
  CacheArrayParams llc{4 * kMiB, 16, true};
  int llc_banks = 4;

  /// L1 hit latency (load-to-use), core cycles.
  Cycle l1_latency = 3;
  /// One crossbar traversal, uncore cycles charged as core cycles at the
  /// reference ratio (see uncore_ratio_latency note below).
  Cycle xbar_hop = 3;
  Cycle llc_tag_latency = 2;
  Cycle llc_data_latency = 4;
  /// Extra round trip when a peer L1 owns the line modified.
  Cycle owner_forward_penalty = 14;
  /// Cycles an LLC bank is occupied per access (pipelined tag+data).
  Cycle bank_occupancy = 2;

  int l1_mshrs = 8;
  int llc_mshrs_per_bank = 16;

  /// Next-line prefetch on L1 fill/miss (both I- and D-side) — the basic
  /// sequential prefetcher every A57-class design ships; essential for the
  /// streaming workloads' bandwidth behaviour.
  bool nextline_prefetch = true;
};

/// Outcome of one core-side access attempt.
struct AccessTicket {
  enum class Status {
    kHit,       ///< completes at `complete_at`
    kMiss,      ///< in flight; completion arrives via drain_completions()
    kRejected,  ///< out of MSHRs / queue space: retry next cycle
  };
  Status status = Status::kRejected;
  Cycle complete_at = 0;
};

/// Completion record for an in-flight miss.
struct MissCompletion {
  CoreId core = 0;
  std::uint64_t user_tag = 0;
  Cycle done = 0;  ///< core-clock cycle the data is usable
};

struct HierarchyStats {
  std::uint64_t l1i_hits = 0, l1i_misses = 0;
  std::uint64_t l1d_hits = 0, l1d_misses = 0;
  std::uint64_t merged_misses = 0;  ///< secondary misses on in-flight lines
  std::uint64_t llc_hits = 0, llc_misses = 0;
  std::uint64_t llc_writebacks = 0;      ///< dirty LLC victims to DRAM
  std::uint64_t l1_writebacks = 0;       ///< dirty L1 victims to LLC
  std::uint64_t back_invalidations = 0;  ///< inclusive-LLC L1 shootdowns
  std::uint64_t owner_forwards = 0;      ///< dirty peer-L1 interventions
  std::uint64_t xbar_flits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t prefetches_issued = 0;   ///< next-line prefetch fills started

  [[nodiscard]] double l1d_miss_rate() const {
    const auto t = l1d_hits + l1d_misses;
    return t == 0 ? 0.0 : static_cast<double>(l1d_misses) / static_cast<double>(t);
  }
  [[nodiscard]] double llc_miss_rate() const {
    const auto t = llc_hits + llc_misses;
    return t == 0 ? 0.0 : static_cast<double>(llc_misses) / static_cast<double>(t);
  }
};

/// The full per-cluster memory system.
class ClusterMemorySystem {
 public:
  ClusterMemorySystem(HierarchyParams params, dram::DramConfig dram_config,
                      Hertz core_clock);

  ClusterMemorySystem(const ClusterMemorySystem&) = delete;
  ClusterMemorySystem& operator=(const ClusterMemorySystem&) = delete;

  [[nodiscard]] const HierarchyParams& params() const { return params_; }

  /// Change the core clock (DVFS): alters the core/memory cycle ratio.
  void set_core_clock(Hertz f);

  /// One access from a core at core-cycle `now`. `user_tag` is echoed in
  /// the completion so the pipeline can match it to its ROB entry.
  AccessTicket access(CoreId core, Addr addr, AccessType type, std::uint64_t user_tag,
                      Cycle now);

  /// Advance one core cycle; drives the DRAM clock domain underneath.
  void tick(Cycle core_now);

  /// Jump `core_cycles` core cycles forward over a window verified (via
  /// next_event_core_cycle) to contain no memory-system activity. Performs
  /// the same clock-domain accumulation arithmetic as per-cycle ticking,
  /// so the core/memory phase stays bit-identical to the ticked path.
  void fast_forward(Cycle core_cycles);

  /// Earliest core cycle >= `core_now` at whose tick the memory system
  /// might change state (DRAM event, completion delivery, or a pending
  /// request becoming enqueueable). Returns `core_now` when the next tick
  /// already has work; kNeverCycle when only core-side events remain.
  [[nodiscard]] Cycle next_event_core_cycle(Cycle core_now) const;

  /// True when the last tick() did any memory-system work (DRAM command,
  /// burst retire, completion delivery, or DRAM enqueue). Cheap gate for
  /// the cluster's skip attempts.
  [[nodiscard]] bool acted_last_tick() const { return mem_acted_; }

  /// Miss completions discovered since the last drain.
  std::vector<MissCompletion> drain_completions();

  /// Allocation-free drain: append completions to `out` and clear.
  void drain_completions_into(std::vector<MissCompletion>& out);

  [[nodiscard]] const HierarchyStats& stats() const { return stats_; }
  [[nodiscard]] const dram::DramSystem& dram() const { return dram_; }
  void reset_stats();

  // ---- Invariant checks (used by property tests) ----
  /// Verifies single-owner and inclusivity invariants; throws on violation.
  void check_coherence_invariants() const;

 private:
  // Directory entry packed in the LLC line meta word.
  struct DirEntry {
    std::uint8_t sharers = 0;  ///< bitmask over cores (L1I or L1D presence)
    int owner = -1;            ///< core holding the line Modified, or -1
  };
  static std::uint32_t pack(DirEntry e);
  static DirEntry unpack(std::uint32_t meta);

  struct PendingMiss {
    Addr line = 0;
    bool want_exclusive = false;  ///< store (GetM) vs load/ifetch (GetS)
    bool issued_to_dram = false;
    /// Waiterless prefetch fill; `prefetch_core`/`prefetch_type` name the
    /// L1 that receives the line when it lands.
    bool prefetch = false;
    CoreId prefetch_core = 0;
    AccessType prefetch_type = AccessType::kLoad;
    struct Waiter {
      CoreId core;
      AccessType type;
      std::uint64_t user_tag;
    };
    std::vector<Waiter> waiters;
  };

  [[nodiscard]] int bank_of(Addr line) const;
  [[nodiscard]] CacheArray& l1_of(CoreId core, AccessType type);

  /// Convert a latency given in fixed-1GHz-uncore cycles to core cycles at
  /// the current DVFS point (minimum one cycle).
  [[nodiscard]] Cycle uncore_cycles(Cycle uncore_lat) const;

  /// Charge crossbar + bank occupancy; returns the cycle the LLC responds.
  Cycle charge_llc_path(int bank, Cycle now);

  /// Handle LLC hit coherence actions; returns extra latency.
  Cycle handle_llc_hit(CoreId core, AccessType type, CacheArray::WayRef ref, Addr line);

  /// Install `line` into requestor's L1, handling the dirty victim.
  void fill_l1(CoreId core, AccessType type, Addr line, bool dirty);

  /// Install a DRAM fill into the LLC, handling victim + inclusivity.
  void fill_llc(const PendingMiss& miss);

  /// Next-line prefetch: bring line+64 toward the given L1.
  void issue_prefetch(CoreId core, AccessType type, Addr next_line);

  AccessTicket access_impl(CoreId core, Addr addr, AccessType type, std::uint64_t user_tag,
                           Cycle now, bool& l1_missed);

  /// Returns true when at least one request or writeback was enqueued.
  bool issue_pending_to_dram();
  void handle_dram_completions(Cycle core_now);

  HierarchyParams params_;
  dram::DramSystem dram_;
  Hertz core_clock_{1e9};
  double mem_per_core_cycle_ = 1.0;  ///< memory cycles advanced per core cycle
  double mem_accum_ = 0.0;

  std::vector<CacheArray> l1i_;
  std::vector<CacheArray> l1d_;
  CacheArray llc_;

  std::vector<Cycle> bank_free_;                 ///< per-LLC-bank busy-until
  std::vector<Addr> last_dmiss_line_;            ///< per-core stream detector
  std::vector<int> l1_mshr_used_;                ///< per-core outstanding
  std::vector<int> llc_mshr_used_;               ///< per-bank outstanding
  std::unordered_map<Addr, PendingMiss> pending_;  ///< keyed by line addr
  int unissued_misses_ = 0;  ///< pending_ entries with issued_to_dram unset
  std::uint64_t next_dram_id_ = 1;
  std::unordered_map<std::uint64_t, Addr> dram_id_to_line_;

  /// Dirty LLC victims waiting for DRAM write-queue space.
  std::deque<Addr> writeback_q_;

  std::vector<MissCompletion> completions_;
  std::vector<dram::MemResponse> dram_resp_scratch_;  ///< reused per tick
  HierarchyStats stats_;
  bool mem_acted_ = false;
};

}  // namespace ntserv::cache
