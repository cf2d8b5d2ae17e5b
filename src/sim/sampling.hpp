// SMARTS-style statistical sampling controller (Wunderlich et al., ISCA'03;
// the paper's Sec. IV methodology).
//
// The paper launches simulations from warmed checkpoints, runs a detailed
// warmup (100K cycles; 2M for Data Serving) and measures the following
// 50K cycles (400K for Data Serving), drawing samples over 10 s of
// simulated time until UIPC converges at 95% confidence with <=2% error.
// Our controller reproduces that loop: per sample it runs `warmup` detailed
// cycles (cache/branch state keeps warming), resets counters, measures
// `measure` cycles, and records the interval UIPC; it stops when the
// confidence target or the sample cap is reached.
#pragma once

#include "common/stats.hpp"
#include "sim/cluster.hpp"

namespace ntserv::sim {

struct SmartsConfig {
  /// One-time architectural warming before the first sample, in committed
  /// instructions (cache/predictor state warms per instruction, so a
  /// cycle-based warmup would under-warm slow-IPC/high-frequency points).
  std::uint64_t warm_instructions = 600'000;
  /// Upper bound on the warming phase.
  Cycle warm_max_cycles = 6'000'000;
  Cycle warmup = 100'000;
  Cycle measure = 50'000;
  int min_samples = 5;
  int max_samples = 40;
  /// 95% confidence (z = 1.96), <=2% relative half-width (paper Sec. IV).
  double z = 1.960;
  double target_rel_error = 0.02;
};

struct SampleResult {
  double uipc_mean = 0.0;
  double uipc_rel_error = 0.0;  ///< CI half-width / mean at the chosen z
  int samples = 0;
  bool converged = false;
  ClusterMetrics last_window;  ///< detailed metrics of the final window
  RunningStats per_sample;
};

/// Runs the sampling loop on a cluster.
class SmartsSampler {
 public:
  explicit SmartsSampler(SmartsConfig config = {}) : config_(config) {}

  [[nodiscard]] const SmartsConfig& config() const { return config_; }

  /// Execute warmup+measure pairs until convergence; the cluster continues
  /// from its current architectural state (checkpoint semantics).
  SampleResult run(Cluster& cluster) const;

 private:
  SmartsConfig config_;
};

}  // namespace ntserv::sim
