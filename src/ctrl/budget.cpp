#include "ctrl/budget.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ntserv::ctrl {

const char* to_string(BudgetKind k) {
  switch (k) {
    case BudgetKind::kFixed: return "fixed";
    case BudgetKind::kLognormal: return "lognormal";
  }
  return "unknown";
}

void BudgetConfig::validate() const {
  NTSERV_EXPECTS(mean > 0, "budget mean must be positive (0 only as the "
                           "unresolved inherit sentinel)");
  // Only the selected distribution's parameters are constrained: a fixed
  // budget with an explicitly zeroed sigma is a valid configuration.
  if (kind == BudgetKind::kLognormal) {
    NTSERV_EXPECTS(sigma > 0.0, "lognormal sigma must be positive");
  }
}

BudgetSampler::BudgetSampler(BudgetConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  config_.validate();
  const double m = static_cast<double>(config_.mean);
  lognormal_mu_ = std::log(m) - 0.5 * config_.sigma * config_.sigma;
}

std::uint64_t BudgetSampler::sample(std::uint64_t id) const {
  // Floor applied after sampling: a request must make observable commit
  // progress, and the fleet's completion interpolation needs a budget
  // that spans at least a few instructions.
  constexpr std::uint64_t kMinInstructions = 64;
  if (config_.kind == BudgetKind::kFixed) return std::max(config_.mean, kMinInstructions);
  Xoshiro256StarStar rng{derive_seed(seed_, id)};
  const double value = rng.lognormal(lognormal_mu_, config_.sigma);
  const auto rounded = static_cast<std::uint64_t>(std::llround(value));
  return std::max(rounded, kMinInstructions);
}

}  // namespace ntserv::ctrl
