#include <gtest/gtest.h>

#include "tech/technology.hpp"

namespace ntserv::tech {
namespace {

// ---- Paper anchor points (Sec. II, Fig. 1) ----

TEST(Technology, BulkCannotOperateAtHalfVolt) {
  const TechnologyModel bulk{TechnologyParams::bulk28()};
  EXPECT_DOUBLE_EQ(bulk.frequency_at(volts(0.5)).value(), 0.0);
  EXPECT_GT(bulk.frequency_at(volts(0.6)).value(), 0.0);
}

TEST(Technology, FdsoiReaches100MHzAtHalfVolt) {
  const TechnologyModel soi{TechnologyParams::fdsoi28()};
  EXPECT_NEAR(in_mhz(soi.frequency_at(volts(0.5))), 100.0, 15.0);
}

TEST(Technology, FbbExceeds500MHzAtHalfVolt) {
  const TechnologyModel fbb{TechnologyParams::fdsoi28_fbb()};
  EXPECT_GT(in_mhz(fbb.frequency_at(volts(0.5))), 500.0);
}

TEST(Technology, BodyBiasShiftsVthBy85mVPerVolt) {
  const TechnologyModel soi{TechnologyParams::fdsoi28()};
  const TechnologyModel fbb1 = soi.with_body_bias(volts(1.0));
  EXPECT_NEAR(soi.vth_eff().value() - fbb1.vth_eff().value(), 0.085, 1e-12);
}

TEST(Technology, PowerOrderingBulkFdsoi) {
  const TechnologyModel bulk{TechnologyParams::bulk28()};
  const TechnologyModel soi{TechnologyParams::fdsoi28()};
  for (double g : {0.5, 1.0, 1.5, 2.0, 2.5}) {
    EXPECT_GT(bulk.core_power(ghz(g)).value(), soi.core_power(ghz(g)).value())
        << "at " << g << " GHz";
  }
}

TEST(Technology, FdsoiSavingGrowsTowardLowVoltage) {
  const TechnologyModel bulk{TechnologyParams::bulk28()};
  const TechnologyModel soi{TechnologyParams::fdsoi28()};
  const double save_low =
      1.0 - soi.core_power(mhz(400)).value() / bulk.core_power(mhz(400)).value();
  const double save_high =
      1.0 - soi.core_power(ghz(2.0)).value() / bulk.core_power(ghz(2.0)).value();
  EXPECT_GT(save_low, save_high);
}

TEST(Technology, ChipPowerBallpark) {
  // 36-core chip at the FBB top frequency lands in the paper's Fig. 1
  // power range (order 100-175 W).
  const TechnologyModel fbb{TechnologyParams::fdsoi28_fbb()};
  const double chip = 36.0 * fbb.core_power(ghz(3.5)).value();
  EXPECT_GT(chip, 90.0);
  EXPECT_LT(chip, 200.0);
}

// ---- Model properties across all flavors ----

class TechFlavorTest : public ::testing::TestWithParam<TechnologyParams> {};

TEST_P(TechFlavorTest, FrequencyMonotoneInVoltage) {
  const TechnologyModel m{GetParam()};
  double prev = -1.0;
  for (double v = m.params().vmin_functional.value(); v <= m.params().vmax.value();
       v += 0.02) {
    const double f = m.frequency_at(volts(v)).value();
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST_P(TechFlavorTest, VoltageForInvertsFrequencyAt) {
  const TechnologyModel m{GetParam()};
  for (double t = 0.05; t <= 1.0; t += 0.05) {
    const Hertz f = m.min_vdd_frequency() +
                    (m.max_frequency() - m.min_vdd_frequency()) * t;
    const Volt v = m.voltage_for(f);
    EXPECT_GE(m.frequency_at(v).value() * 1.0000001, f.value());
    // One millivolt lower must not sustain f (tightness), except at the
    // Vmin clamp where lower voltages are out of spec anyway.
    if (v > m.params().vmin_functional + Volt{0.002}) {
      EXPECT_LT(m.frequency_at(v - Volt{0.002}).value(), f.value());
    }
  }
}

TEST_P(TechFlavorTest, VoltageClampsAtFunctionalMinimum) {
  const TechnologyModel m{GetParam()};
  const Hertz slow = m.min_vdd_frequency() * 0.1;
  EXPECT_EQ(m.voltage_for(slow), m.params().vmin_functional);
}

TEST_P(TechFlavorTest, InfeasibleFrequencyThrows) {
  const TechnologyModel m{GetParam()};
  EXPECT_THROW((void)m.voltage_for(m.max_frequency() * 1.01), ModelError);
  EXPECT_THROW((void)m.voltage_for(Hertz{0.0}), ModelError);
  EXPECT_FALSE(m.feasible(m.max_frequency() * 1.01));
  EXPECT_TRUE(m.feasible(m.max_frequency() * 0.99));
}

TEST_P(TechFlavorTest, LeakageMonotoneInVoltage) {
  const TechnologyModel m{GetParam()};
  double prev = 0.0;
  for (double v = 0.4; v <= m.params().vmax.value(); v += 0.05) {
    const double leak = m.leakage_power(volts(v)).value();
    EXPECT_GT(leak, prev);
    prev = leak;
  }
}

TEST_P(TechFlavorTest, DynamicPowerScalesWithActivity) {
  const TechnologyModel m{GetParam()};
  const Volt v = m.params().vmax;
  const Hertz f = m.max_frequency();
  const double full = m.dynamic_power(v, f, 1.0).value();
  EXPECT_NEAR(m.dynamic_power(v, f, 0.5).value(), full / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.dynamic_power(v, f, 0.0).value(), 0.0);
  EXPECT_THROW((void)m.dynamic_power(v, f, 1.5), ModelError);
}

TEST_P(TechFlavorTest, CorePowerMonotoneInFrequency) {
  const TechnologyModel m{GetParam()};
  double prev = 0.0;
  for (double t = 0.1; t <= 1.0; t += 0.1) {
    const Hertz f = m.max_frequency() * t;
    const double p = m.core_power(f).value();
    EXPECT_GT(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Flavors, TechFlavorTest,
                         ::testing::Values(TechnologyParams::bulk28(),
                                           TechnologyParams::fdsoi28(),
                                           TechnologyParams::fdsoi28_fbb(),
                                           TechnologyParams::fdsoi28_cw()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// ---- Misc API ----

TEST(Technology, BodyBiasRangeEnforced) {
  const TechnologyModel soi{TechnologyParams::fdsoi28()};
  EXPECT_THROW((void)soi.with_body_bias(volts(-0.5)), ModelError);  // flip-well: FBB only
  EXPECT_THROW((void)soi.with_body_bias(volts(3.5)), ModelError);
  EXPECT_NO_THROW((void)soi.with_body_bias(volts(3.0)));
  const TechnologyModel cw{TechnologyParams::fdsoi28_cw()};
  EXPECT_NO_THROW((void)cw.with_body_bias(volts(-3.0)));
  EXPECT_THROW((void)cw.with_body_bias(volts(1.0)), ModelError);
}

TEST(Technology, FbbFactoryValidatesRange) {
  EXPECT_THROW((void)TechnologyParams::fdsoi28_fbb(volts(-1.0)), ModelError);
  EXPECT_THROW((void)TechnologyParams::fdsoi28_fbb(volts(4.0)), ModelError);
}

TEST(Technology, ProcessNames) {
  EXPECT_STREQ(to_string(Process::kBulk28), "28nm bulk");
  EXPECT_STREQ(to_string(Process::kFdSoi28), "28nm UTBB FD-SOI");
}

}  // namespace
}  // namespace ntserv::tech
