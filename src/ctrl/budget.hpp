// Heterogeneous per-request instruction budgets.
//
// The serving layer's original invariant (paper Sec. V-A) is that every
// request costs a *constant* number of user instructions; that is what
// makes the analytic latency-scaling rule exact. Real request populations
// are not constant — key-value reads mix with range scans, cache hits with
// misses — so the closed-loop runtime control experiments need budget
// *distributions*: the tail of the service-time distribution is what the
// governors' p99 feedback actually reacts to. Two families cover the
// space: fixed (the paper's invariant, the cross-check anchor) and
// lognormal (the heavy-ish tail measured for request service times in
// production serving systems).
//
// Sampling is a pure function of (config, seed, request id): every request
// id gets its own derive_seed-derived stream, so budgets are identical
// whatever order requests are admitted, retried or dispatched in — the
// same determinism contract as the arrival processes.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace ntserv::ctrl {

enum class BudgetKind {
  kFixed,      ///< every request costs exactly `mean` instructions
  kLognormal,  ///< lognormal with E[X] = mean and shape `sigma`
};

[[nodiscard]] const char* to_string(BudgetKind k);

struct BudgetConfig {
  BudgetKind kind = BudgetKind::kFixed;
  /// Mean instruction budget. 0 means "inherit the tenant's
  /// user_instructions_per_request" (dc::TenantSpec::resolved_budget).
  std::uint64_t mean = 0;
  /// Sigma of the underlying normal for kLognormal; mu is set to
  /// log(mean) - sigma^2/2 so the distribution's expectation is `mean`.
  double sigma = 0.5;

  void validate() const;
};

/// Deterministic per-request budget sampler.
class BudgetSampler {
 public:
  BudgetSampler(BudgetConfig config, std::uint64_t seed);

  [[nodiscard]] const BudgetConfig& config() const { return config_; }

  /// Instruction budget of request `id`: a pure function of
  /// (config, seed, id), independent of call order.
  [[nodiscard]] std::uint64_t sample(std::uint64_t id) const;

 private:
  BudgetConfig config_;
  std::uint64_t seed_;
  double lognormal_mu_ = 0.0;  ///< precomputed so E[X] = mean
};

}  // namespace ntserv::ctrl
