// Statistical micro-op generator: turns a WorkloadProfile into an infinite
// program-order uop stream (the paper-substitution for running real
// CloudSuite binaries under Flexus).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/uop.hpp"
#include "workload/profile.hpp"

namespace ntserv::workload {

/// Virtual-address layout of one core's synthetic process.
struct AddressSpace {
  Addr data_base = 8 * kGiB;
  Addr code_base = 6 * kGiB;
  /// Region shared by all cores of a cluster (OS structures, shared heaps).
  Addr shared_base = 4 * kGiB;
  std::uint64_t shared_size = 64 * kMiB;

  /// Per-core layout: private data regions offset by a 16 GiB stripe (the
  /// paper's per-container isolation), but a *shared* code region — the
  /// cores of a cluster run the same server binary and shared libraries,
  /// so instruction lines are naturally shared in the LLC.
  static AddressSpace for_core(CoreId core) {
    AddressSpace as;
    as.data_base += static_cast<Addr>(core) * 16 * kGiB;
    return as;
  }
};

/// Infinite synthetic uop stream with the profile's statistics.
///
/// Generation is batched: next() serves from a small ring refilled
/// kBatch uops at a time, so the generator's state (RNG, cursors,
/// profile constants) stays hot across one tight refill loop instead of
/// being reloaded on every virtual call (~13% of serial time went to
/// per-uop generation; see docs/performance.md). The emitted stream is
/// bit-identical to per-uop generation — the RNG draw order is unchanged.
class SyntheticWorkload final : public cpu::UopSource {
 public:
  /// Ring capacity: large enough to amortize the refill, small enough to
  /// stay in L1 (16 uops x 32 B = one line pair per refill).
  static constexpr int kBatch = 16;

  SyntheticWorkload(WorkloadProfile profile, std::uint64_t seed,
                    AddressSpace space = {});

  cpu::MicroOp next() override {
    if (ring_pos_ == kBatch) refill();
    ++count_;
    return ring_[static_cast<std::size_t>(ring_pos_++)];
  }

  [[nodiscard]] const WorkloadProfile& profile() const { return profile_; }
  /// Uops handed out via next() (pre-generated ring contents excluded).
  [[nodiscard]] std::uint64_t generated() const { return count_; }

 private:
  void refill();
  [[nodiscard]] cpu::MicroOp generate_one();
  [[nodiscard]] cpu::UopType sample_type();
  [[nodiscard]] Addr data_address(bool& is_chase);
  [[nodiscard]] Addr branch_target();
  void maybe_toggle_os_mode();
  /// Geometric(dep_p_) failures-before-success with the constant
  /// denominator hoisted; draw-for-draw identical to rng_.geometric.
  [[nodiscard]] std::uint64_t dep_distance();

  WorkloadProfile profile_;
  AddressSpace space_;
  Xoshiro256StarStar rng_;
  ZipfSampler hot_zipf_;

  Addr pc_;
  Addr last_data_addr_ = 0;
  bool have_last_addr_ = false;
  std::vector<Addr> stream_cursor_;
  int next_stream_ = 0;
  int stream_burst_left_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t uops_since_last_load_ = 0;
  bool in_os_mode_ = false;
  std::uint64_t os_dwell_left_ = 0;
  cpu::MicroOp ring_[kBatch];
  int ring_pos_ = kBatch;  ///< == kBatch forces the first refill
  // Per-profile constants hoisted out of the per-uop path (identical
  // doubles to the values the expressions produced inline, so the
  // emitted stream is unchanged).
  double dep_p_ = 0.0;            ///< 1 / dep_distance_mean
  double dep_log_denom_ = 0.0;    ///< log1p(-dep_p_), valid when dep_p_ < 1
  double os_enter_prob_ = 0.0;
};

}  // namespace ntserv::workload
