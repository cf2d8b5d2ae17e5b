#include <gtest/gtest.h>

#include <cmath>

#include "qos/qos.hpp"

namespace ntserv::qos {
namespace {

TEST(Qos, PaperTargets) {
  const auto suite = QosTarget::scale_out_suite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_DOUBLE_EQ(in_ms(suite[0].qos_limit), 20.0);   // Data Serving
  EXPECT_DOUBLE_EQ(in_ms(suite[1].qos_limit), 200.0);  // Web Search
  EXPECT_DOUBLE_EQ(in_ms(suite[2].qos_limit), 200.0);  // Web Serving
  EXPECT_DOUBLE_EQ(in_ms(suite[3].qos_limit), 100.0);  // Media Streaming
  for (const auto& t : suite) EXPECT_LT(t.baseline_p99.value(), t.qos_limit.value());
}

TEST(Qos, LookupByName) {
  EXPECT_DOUBLE_EQ(in_ms(QosTarget::for_workload("Web Search").qos_limit), 200.0);
  EXPECT_THROW((void)QosTarget::for_workload("nonexistent"), ModelError);
}

TEST(Qos, ScalingRuleIsUipsRatio) {
  const auto t = QosTarget::data_serving();
  // Half the throughput -> double the latency (paper Sec. V-A).
  EXPECT_NEAR(scaled_latency(t, 5e9, 1e10).value(), 2.0 * t.baseline_p99.value(), 1e-12);
  EXPECT_NEAR(scaled_latency(t, 1e10, 1e10).value(), t.baseline_p99.value(), 1e-12);
  EXPECT_THROW((void)scaled_latency(t, 0.0, 1e10), ModelError);
}

TEST(Qos, NormalizedLatencyAgainstLimit) {
  const auto t = QosTarget::data_serving();  // 12 ms baseline, 20 ms limit
  EXPECT_NEAR(normalized_latency(t, 1e10, 1e10), 0.6, 1e-12);
  // Throughput drop by 20/12 puts it exactly at the limit.
  EXPECT_NEAR(normalized_latency(t, 1e10 * 12.0 / 20.0, 1e10), 1.0, 1e-9);
}

std::vector<UipsSample> linear_sweep() {
  // UIPS proportional to f: 1 GHz -> 10 G.
  std::vector<UipsSample> s;
  for (double g = 0.2; g <= 2.01; g += 0.2) s.push_back({ghz(g), g * 1e10});
  return s;
}

TEST(Qos, FrequencyFloorInterpolates) {
  const auto sweep = linear_sweep();
  const double base = 2e10;  // at 2 GHz
  QosTarget t{"synthetic", milliseconds(100), milliseconds(25)};
  // normalized(f) = 0.25 * (2/f_GHz); crosses 1.0 at f = 0.5 GHz.
  const Hertz floor = frequency_floor(t, sweep, base);
  EXPECT_NEAR(in_ghz(floor), 0.5, 0.05);
}

TEST(Qos, FrequencyFloorAtBottomWhenAlwaysMet) {
  const auto sweep = linear_sweep();
  QosTarget t{"easy", seconds(10), milliseconds(1)};
  EXPECT_NEAR(in_ghz(frequency_floor(t, sweep, 2e10)), 0.2, 1e-9);
}

TEST(Qos, FrequencyFloorThrowsWhenImpossible) {
  const auto sweep = linear_sweep();
  QosTarget t{"impossible", milliseconds(1), milliseconds(50)};
  EXPECT_THROW((void)frequency_floor(t, sweep, 2e10), ModelError);
}

TEST(Qos, BatchDegradation) {
  EXPECT_DOUBLE_EQ(batch_degradation(5e9, 1e10), 2.0);
  EXPECT_DOUBLE_EQ(batch_degradation(1e10, 1e10), 1.0);
  EXPECT_THROW((void)batch_degradation(0, 1e10), ModelError);
}

TEST(Qos, DegradationFloors) {
  const auto sweep = linear_sweep();
  const double base = 2e10;
  // degradation(f) = 2/f_GHz: <=4x at f >= 0.5 GHz; <=2x at f >= 1 GHz.
  EXPECT_NEAR(in_ghz(degradation_floor(sweep, base, kMaxDegradationBound)), 0.5, 0.05);
  EXPECT_NEAR(in_ghz(degradation_floor(sweep, base, kMinDegradationBound)), 1.0, 0.05);
  EXPECT_THROW((void)degradation_floor(sweep, base, 0.5), ModelError);
}

TEST(Qos, PaperBoundsConstants) {
  EXPECT_DOUBLE_EQ(kMinDegradationBound, 2.0);
  EXPECT_DOUBLE_EQ(kMaxDegradationBound, 4.0);
}

}  // namespace
}  // namespace ntserv::qos
