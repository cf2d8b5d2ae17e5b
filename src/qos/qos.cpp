#include "qos/qos.hpp"

#include <algorithm>
#include <cmath>

namespace ntserv::qos {

QosTarget QosTarget::data_serving() {
  // YCSB-style NoSQL read: tight 20 ms limit; measured minimum ~12 ms at
  // the 2 GHz near-zero-contention baseline.
  return {"Data Serving", milliseconds(20.0), milliseconds(12.0)};
}

QosTarget QosTarget::web_search() {
  return {"Web Search", milliseconds(200.0), milliseconds(85.0)};
}

QosTarget QosTarget::web_serving() {
  return {"Web Serving", milliseconds(200.0), milliseconds(90.0)};
}

QosTarget QosTarget::media_streaming() {
  return {"Media Streaming", milliseconds(100.0), milliseconds(45.0)};
}

std::vector<QosTarget> QosTarget::scale_out_suite() {
  return {data_serving(), web_search(), web_serving(), media_streaming()};
}

QosTarget QosTarget::for_workload(const std::string& name) {
  for (const auto& t : scale_out_suite()) {
    if (t.workload == name) return t;
  }
  throw ModelError("no QoS target registered for workload: " + name);
}

Second scaled_latency(const QosTarget& target, double uips_at_f, double uips_at_baseline) {
  NTSERV_EXPECTS(uips_at_f > 0.0 && uips_at_baseline > 0.0, "UIPS must be positive");
  return target.baseline_p99 * (uips_at_baseline / uips_at_f);
}

double normalized_latency(const QosTarget& target, double uips_at_f,
                          double uips_at_baseline) {
  return scaled_latency(target, uips_at_f, uips_at_baseline) / target.qos_limit;
}

Second measured_scaled_latency(const QosTarget& target, Second p99_at_f,
                               Second p99_at_baseline) {
  NTSERV_EXPECTS(p99_at_f.value() > 0.0 && p99_at_baseline.value() > 0.0,
                 "measured p99 latencies must be positive");
  return target.baseline_p99 * (p99_at_f / p99_at_baseline);
}

double measured_normalized_latency(const QosTarget& target, Second p99_at_f,
                                   Second p99_at_baseline) {
  return measured_scaled_latency(target, p99_at_f, p99_at_baseline) / target.qos_limit;
}

Second sim_qos_limit(const QosTarget& target, Second measured_baseline_p99) {
  NTSERV_EXPECTS(measured_baseline_p99.value() > 0.0,
                 "baseline measurement must be positive");
  return measured_baseline_p99 * (target.qos_limit / target.baseline_p99);
}

namespace {

/// Lowest frequency where metric(f) <= bound, given metric is decreasing
/// in f; linear interpolation on the metric between samples.
Hertz floor_by_metric(const std::vector<UipsSample>& sweep, double uips_at_baseline,
                      double bound, double (*metric_num)(double, double)) {
  NTSERV_EXPECTS(sweep.size() >= 2, "sweep needs at least two points");
  std::vector<UipsSample> pts = sweep;
  std::sort(pts.begin(), pts.end(),
            [](const UipsSample& a, const UipsSample& b) { return a.frequency < b.frequency; });

  double prev_m = metric_num(pts.front().uips, uips_at_baseline);
  if (prev_m <= bound) return pts.front().frequency;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double m = metric_num(pts[i].uips, uips_at_baseline);
    if (m <= bound) {
      // Interpolate the crossing between i-1 and i.
      const double t = (prev_m - bound) / (prev_m - m);
      const double f = pts[i - 1].frequency.value() +
                       t * (pts[i].frequency.value() - pts[i - 1].frequency.value());
      return Hertz{f};
    }
    prev_m = m;
  }
  throw ModelError("no frequency in the sweep satisfies the bound");
}

}  // namespace

Hertz frequency_floor(const QosTarget& target, const std::vector<UipsSample>& sweep,
                      double uips_at_baseline) {
  // metric = normalized latency; bind target via a small shim using statics
  // is clumsy — inline the ratio instead.
  NTSERV_EXPECTS(sweep.size() >= 2, "sweep needs at least two points");
  std::vector<UipsSample> pts = sweep;
  std::sort(pts.begin(), pts.end(),
            [](const UipsSample& a, const UipsSample& b) { return a.frequency < b.frequency; });
  auto norm = [&](double uips) {
    return normalized_latency(target, uips, uips_at_baseline);
  };
  double prev_m = norm(pts.front().uips);
  if (prev_m <= 1.0) return pts.front().frequency;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double m = norm(pts[i].uips);
    if (m <= 1.0) {
      const double t = (prev_m - 1.0) / (prev_m - m);
      const double f = pts[i - 1].frequency.value() +
                       t * (pts[i].frequency.value() - pts[i - 1].frequency.value());
      return Hertz{f};
    }
    prev_m = m;
  }
  throw ModelError("QoS cannot be met at any frequency in the sweep");
}

double batch_degradation(double uips_at_f, double uips_at_baseline) {
  NTSERV_EXPECTS(uips_at_f > 0.0 && uips_at_baseline > 0.0, "UIPS must be positive");
  return uips_at_baseline / uips_at_f;
}

Hertz degradation_floor(const std::vector<UipsSample>& sweep, double uips_at_baseline,
                        double bound) {
  NTSERV_EXPECTS(bound >= 1.0, "degradation bound must be >= 1");
  return floor_by_metric(sweep, uips_at_baseline, bound, &batch_degradation);
}

}  // namespace ntserv::qos
