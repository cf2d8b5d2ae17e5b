// Streaming latency-percentile estimation for the datacenter serving layer.
//
// A request-level simulation completes up to millions of requests per
// scenario; keeping every latency for an exact sort (common/stats.hpp
// PercentileTracker) would make memory grow with the request count. This
// estimator keeps the population exact while it is small — so short runs
// report the same nearest-rank percentiles the exact tracker would — and
// switches to the P² algorithm (Jain & Chlamtac, CACM'85) per tracked
// quantile once the exact buffer fills, giving O(1) memory and O(quantiles)
// update cost afterwards. The markers are warm-started from the full sorted
// buffer at the transition, so the estimate never discards what was seen.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ntserv::dc {

/// Streaming estimator for a fixed set of quantiles (default p50/p95/p99).
class StreamingPercentiles {
 public:
  /// Exact-population threshold: below this count percentiles are computed
  /// by sorting (the same nearest rank as PercentileTracker).
  static constexpr std::size_t kExactCap = 512;

  explicit StreamingPercentiles(std::vector<double> quantiles = {0.50, 0.95, 0.99})
      : quantiles_(std::move(quantiles)) {
    NTSERV_EXPECTS(!quantiles_.empty(), "need at least one quantile");
    for (double q : quantiles_) {
      NTSERV_EXPECTS(q > 0.0 && q < 1.0, "quantiles must be in (0,1)");
    }
    markers_.resize(quantiles_.size());
  }

  void add(double x) {
    ++count_;
    if (count_ <= kExactCap) {
      exact_.push_back(x);
      return;
    }
    if (!streaming_) {
      init_markers();
      exact_.clear();
      exact_.shrink_to_fit();
      streaming_ = true;
    }
    for (std::size_t i = 0; i < markers_.size(); ++i) p2_add(markers_[i], x);
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Estimate for one of the registered quantiles (throws on others).
  [[nodiscard]] double quantile(double q) const {
    NTSERV_EXPECTS(count_ > 0, "quantile of empty population");
    for (std::size_t i = 0; i < quantiles_.size(); ++i) {
      if (std::abs(quantiles_[i] - q) < 1e-12) {
        if (count_ <= kExactCap) return exact_nearest_rank(q);
        return markers_[i].height[2];
      }
    }
    throw ModelError("quantile was not registered with this estimator");
  }

  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

 private:
  /// P² state for one quantile: 5 markers (min, mid-low, target, mid-high,
  /// max) with heights, integer positions and desired positions.
  struct P2 {
    double height[5] = {};
    double pos[5] = {};
    double desired[5] = {};
    double rate[5] = {};
  };

  [[nodiscard]] double exact_nearest_rank(double q) const {
    std::vector<double> sorted = exact_;
    std::sort(sorted.begin(), sorted.end());
    return nearest_rank(sorted, q);
  }

  /// Warm-start every quantile's markers from the full sorted exact buffer.
  void init_markers() {
    std::vector<double> sorted = exact_;
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    for (std::size_t i = 0; i < quantiles_.size(); ++i) {
      const double q = quantiles_[i];
      P2& m = markers_[i];
      const double frac[5] = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
      for (int j = 0; j < 5; ++j) {
        // Desired position after n observations (1-based, P² convention).
        const double p = 1.0 + (n - 1.0) * frac[j];
        const auto idx = static_cast<std::size_t>(std::llround(p)) - 1;
        m.height[j] = sorted[std::min(idx, sorted.size() - 1)];
        m.pos[j] = static_cast<double>(std::min(idx, sorted.size() - 1)) + 1.0;
        m.desired[j] = p;
        m.rate[j] = frac[j];
      }
      // Positions must be strictly increasing for the parabolic update.
      for (int j = 1; j < 5; ++j) {
        if (m.pos[j] <= m.pos[j - 1]) m.pos[j] = m.pos[j - 1] + 1.0;
      }
    }
  }

  static void p2_add(P2& m, double x) {
    int cell;
    if (x < m.height[0]) {
      m.height[0] = x;
      cell = 0;
    } else if (x >= m.height[4]) {
      m.height[4] = x;
      cell = 3;
    } else {
      cell = 0;
      while (cell < 3 && x >= m.height[cell + 1]) ++cell;
    }
    for (int j = cell + 1; j < 5; ++j) m.pos[j] += 1.0;
    for (int j = 0; j < 5; ++j) m.desired[j] += m.rate[j];

    for (int j = 1; j <= 3; ++j) {
      const double d = m.desired[j] - m.pos[j];
      if ((d >= 1.0 && m.pos[j + 1] - m.pos[j] > 1.0) ||
          (d <= -1.0 && m.pos[j - 1] - m.pos[j] < -1.0)) {
        const double s = d >= 0.0 ? 1.0 : -1.0;
        const double candidate = parabolic(m, j, s);
        if (m.height[j - 1] < candidate && candidate < m.height[j + 1]) {
          m.height[j] = candidate;
        } else {
          m.height[j] = linear(m, j, s);
        }
        m.pos[j] += s;
      }
    }
  }

  [[nodiscard]] static double parabolic(const P2& m, int j, double s) {
    const double np = m.pos[j + 1], nc = m.pos[j], nm = m.pos[j - 1];
    return m.height[j] +
           s / (np - nm) *
               ((nc - nm + s) * (m.height[j + 1] - m.height[j]) / (np - nc) +
                (np - nc - s) * (m.height[j] - m.height[j - 1]) / (nc - nm));
  }

  [[nodiscard]] static double linear(const P2& m, int j, double s) {
    const int k = j + static_cast<int>(s);
    return m.height[j] +
           s * (m.height[k] - m.height[j]) / (m.pos[k] - m.pos[j]);
  }

  std::vector<double> quantiles_;
  std::vector<P2> markers_;
  std::vector<double> exact_;
  std::size_t count_ = 0;
  bool streaming_ = false;
};

}  // namespace ntserv::dc
