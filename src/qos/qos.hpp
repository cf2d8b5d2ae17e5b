// Quality-of-Service models (paper Sec. III-B, IV, V-A; Fig. 2).
//
// Scale-out applications: the paper measures the minimum 99th-percentile
// latency at 2 GHz in a near-zero-contention setup (Intel i7-4785T), then
// scales it with the simulated throughput ratio — valid because the number
// of user instructions per request is constant across contention points —
// and normalizes by each application's published QoS limit (Data Serving
// 20 ms, Web Search 200 ms, Web Serving 200 ms, Media Streaming 100 ms).
//
// Virtualized applications: batch tasks with no user interaction; the QoS
// metric is the execution-time degradation versus the 2 GHz baseline,
// bounded between 2x (min observed in production) and 4x (max acceptable).
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace ntserv::qos {

/// Per-application QoS anchor data.
struct QosTarget {
  std::string workload;
  /// QoS limit on the 99th-percentile latency (paper Sec. V-A).
  Second qos_limit{0.2};
  /// Minimum (near-zero-contention) 99th-pct latency at the 2 GHz baseline
  /// — the role of the paper's i7-4785T measurement.
  Second baseline_p99{0.05};

  /// The paper's four scale-out applications with their stated QoS limits
  /// and baseline measurements consistent with public tail-latency data.
  static QosTarget data_serving();
  static QosTarget web_search();
  static QosTarget web_serving();
  static QosTarget media_streaming();
  static std::vector<QosTarget> scale_out_suite();

  /// Look up by workload name; throws if unknown.
  static QosTarget for_workload(const std::string& name);
};

/// The paper's latency-scaling rule: latency(f) = baseline * UIPS_base/UIPS(f).
/// Valid because user instructions per request are constant (Sec. V-A).
[[nodiscard]] Second scaled_latency(const QosTarget& target, double uips_at_f,
                                    double uips_at_baseline);

/// scaled_latency normalized by the QoS limit (the paper's Fig. 2 y-axis);
/// values <= 1 meet the QoS.
[[nodiscard]] double normalized_latency(const QosTarget& target, double uips_at_f,
                                        double uips_at_baseline);

// ---- Measured (request-level) tail latency ----
//
// The request-level serving layer (src/dc) measures p99 directly from
// simulated request completions. Anchoring works exactly like the paper's
// hardware measurement: the simulated p99 at the 2 GHz baseline plays the
// i7-4785T's role, and the QoS anchor's baseline_p99 is scaled by the
// *measured* latency ratio instead of the UIPS ratio. On a contention-free
// scenario the two paths agree (instructions per request are constant); in
// contended scenarios the measured path additionally captures queueing,
// which the analytic scaling rule cannot.

/// baseline_p99 scaled by the measured tail ratio p99(f) / p99(f_base).
[[nodiscard]] Second measured_scaled_latency(const QosTarget& target, Second p99_at_f,
                                             Second p99_at_baseline);

/// measured_scaled_latency normalized by the QoS limit (<= 1 meets QoS).
[[nodiscard]] double measured_normalized_latency(const QosTarget& target, Second p99_at_f,
                                                 Second p99_at_baseline);

/// Map an application QoS limit into *simulated* time: the runtime SLO a
/// closed-loop governor (src/ctrl) enforces on measured epoch p99. By the
/// anchoring rule, a simulated p99 of `measured_baseline_p99` corresponds
/// to the application's `baseline_p99`, so the limit corresponds to
/// measured_baseline_p99 * qos_limit / baseline_p99. A measured p99 under
/// this bound has measured_normalized_latency <= 1.
[[nodiscard]] Second sim_qos_limit(const QosTarget& target, Second measured_baseline_p99);

/// Lowest frequency in a measured UIPS(f) sweep that still meets QoS
/// (linear interpolation between grid points). Throws if no point meets it.
struct UipsSample {
  Hertz frequency;
  double uips;
};
[[nodiscard]] Hertz frequency_floor(const QosTarget& target,
                                    const std::vector<UipsSample>& sweep,
                                    double uips_at_baseline);

// ---- Virtualized (batch) QoS ----

/// Execution-time degradation of a batch task at reduced throughput:
/// degradation(f) = UIPS_base / UIPS(f).
[[nodiscard]] double batch_degradation(double uips_at_f, double uips_at_baseline);

/// Paper's degradation bounds from production data (Sec. III-B2).
constexpr double kMinDegradationBound = 2.0;
constexpr double kMaxDegradationBound = 4.0;

/// Lowest frequency whose degradation stays within `bound`.
[[nodiscard]] Hertz degradation_floor(const std::vector<UipsSample>& sweep,
                                      double uips_at_baseline, double bound);

}  // namespace ntserv::qos
