// Streaming statistics used by the sampling controller and QoS models.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace ntserv {

/// Welford running mean/variance with confidence-interval support.
///
/// The SMARTS sampling controller (sim/sampling.hpp) uses this to decide
/// when the measured UIPC has converged to the target relative error at the
/// target confidence level (the paper uses 95% confidence, <=2% error).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  [[nodiscard]] double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double stderror() const {
    return n_ < 1 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
  }

  /// Half-width of the normal-approximation confidence interval.
  /// z = 1.960 corresponds to 95% confidence.
  [[nodiscard]] double ci_halfwidth(double z = 1.960) const { return z * stderror(); }

  /// Relative CI half-width (NaN-safe: 0 when mean is 0).
  [[nodiscard]] double relative_error(double z = 1.960) const {
    if (mean_ == 0.0) return 0.0;
    return ci_halfwidth(z) / std::abs(mean_);
  }

  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) { *this = o; return; }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += o.m2_ + delta * delta * na * nb / total;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Nearest-rank quantile of an ascending-sorted, non-empty sample: the
/// value at rank ceil(q * n), clamped to [1, n] (the convention used for
/// "99th-percentile latency" in tail-latency literature).
[[nodiscard]] inline double nearest_rank(const std::vector<double>& sorted, double q) {
  NTSERV_EXPECTS(!sorted.empty(), "percentile of empty population");
  const std::size_t n = sorted.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::clamp<std::size_t>(rank, 1, n) - 1];
}

/// Exact percentile tracker over a bounded population.
///
/// Latency distributions in the QoS model are small (one sample per request
/// batch), so we keep values exactly and sort on query.
class PercentileTracker {
 public:
  void add(double x) { values_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t count() const { return values_.size(); }

  /// p in [0, 100]; nearest-rank percentile.
  [[nodiscard]] double percentile(double p) const {
    NTSERV_EXPECTS(!values_.empty(), "percentile of empty population");
    NTSERV_EXPECTS(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
    ensure_sorted();
    return nearest_rank(values_, p / 100.0);
  }

  [[nodiscard]] double mean() const {
    NTSERV_EXPECTS(!values_.empty(), "mean of empty population");
    double s = 0.0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

  void clear() { values_.clear(); sorted_ = false; }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace ntserv
