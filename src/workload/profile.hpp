// Workload profiles: the statistical fingerprints driving the synthetic
// micro-op generators.
//
// The paper evaluates four CloudSuite scale-out applications plus two
// synthetic virtualized banking-VM classes (Sec. III-A). We reproduce each
// as a WorkloadProfile whose parameters are set from the published
// characterization of these workloads (Ferdman et al., ASPLOS'12 — large
// instruction footprints, LLC-adverse multi-GB data working sets, modest
// ILP/MLP; YCSB-style Zipf popularity for serving workloads) so that the
// *shape* of UIPS(frequency) matches the paper's: near-linear for
// CPU-bound workloads, strongly sub-linear for memory-bound ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace ntserv::workload {

/// Fractions of each micro-op class; must sum to 1.
struct InstructionMix {
  double int_alu = 0.40;
  double int_mul = 0.02;
  double int_div = 0.00;
  double fp_alu = 0.02;
  double fp_mul = 0.01;
  double fp_div = 0.00;
  double load = 0.30;
  double store = 0.10;
  double branch = 0.15;

  [[nodiscard]] double sum() const {
    return int_alu + int_mul + int_div + fp_alu + fp_mul + fp_div + load + store + branch;
  }
};

struct WorkloadProfile {
  std::string name;
  InstructionMix mix;

  // ---- Data side ----
  /// Total per-core data footprint (bytes).
  std::uint64_t data_footprint = 512 * kMiB;
  /// Hot region targeted by the Zipf popularity distribution.
  std::uint64_t hot_footprint = 16 * kMiB;
  /// Zipf skew over hot objects (YCSB default 0.99 for serving workloads).
  double zipf_skew = 0.99;
  /// Fraction of data accesses that stream sequentially (media streaming).
  double streaming_fraction = 0.05;
  /// Number of concurrent sequential streams.
  int stream_count = 4;
  /// Fraction of loads that are pointer-chasing (dependent on the previous
  /// load's value — serialized misses, the MLP killer).
  double pointer_chase_fraction = 0.05;
  /// Probability the next data access stays within the last-touched line
  /// (spatial locality run).
  double spatial_run = 0.40;
  /// Fraction of data accesses to the cluster-shared region (coherence
  /// traffic between the cores of a cluster).
  double shared_fraction = 0.02;
  /// Fraction of data accesses to the per-core stack/locals region — the
  /// L1-resident short-term reuse every real program exhibits.
  double stack_fraction = 0.45;
  /// Size of the stack/locals region (L1-resident by construction; real
  /// hot call-stack footprints are a few KB).
  std::uint64_t stack_bytes = 4 * kKiB;
  /// Probability a heap access targets the hot (Zipf) region rather than
  /// the uniformly-cold full footprint.
  double hot_access_prob = 0.90;

  // ---- Instruction side ----
  /// Active code footprint (bytes); scale-out apps have multi-MB code.
  std::uint64_t code_footprint = 2 * kMiB;
  /// Hot code fraction receiving most far jumps: the looping kernel the
  /// branch predictor and L1I can actually learn/hold (tens of KB).
  double hot_code_fraction = 0.015;
  /// Mean basic-block length (uops between branches, derived from mix).
  /// Branch behaviour: probability a branch follows its PC-biased pattern
  /// (predictable); the rest are coin flips the predictor cannot learn.
  double branch_predictability = 0.90;
  double branch_taken_bias = 0.60;

  // ---- Dependencies ----
  /// Mean register-dependency distance (geometric): small = serial code.
  double dep_distance_mean = 6.0;
  /// Probability a uop has a second register source.
  double second_source_prob = 0.35;

  // ---- System ----
  /// Fraction of instructions executed in OS mode (excluded from UIPC's
  /// numerator but not its denominator, paper Sec. IV).
  double os_fraction = 0.10;

  void validate() const;

  // ---- The paper's workloads (Sec. III-A) ----
  /// CloudSuite Data Serving (Cassandra NoSQL store, YCSB driver).
  static WorkloadProfile data_serving();
  /// CloudSuite Web Search (index serving).
  static WorkloadProfile web_search();
  /// CloudSuite Web Serving (dynamic web stack).
  static WorkloadProfile web_serving();
  /// CloudSuite Media Streaming (video segment server).
  static WorkloadProfile media_streaming();
  /// Synthetic banking VM, low memory provisioning (100 MB, Sec. III-B2).
  static WorkloadProfile vm_banking_low_mem();
  /// Synthetic banking VM, high memory provisioning (700 MB): more memory
  /// use *and* more CPU-bound than low-mem (paper Sec. V-B1).
  static WorkloadProfile vm_banking_high_mem();

  /// All four scale-out profiles in the paper's figure order.
  static std::vector<WorkloadProfile> scale_out_suite();
  /// Both VM profiles in the paper's figure order.
  static std::vector<WorkloadProfile> vm_suite();
};

}  // namespace ntserv::workload
