#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dc/scenario.hpp"
#include "fault/fault.hpp"

namespace ntserv::fault {
namespace {

TEST(FaultInjector, ScriptedEventsAreTimeSorted) {
  FaultConfig cfg;
  cfg.events = {{2.0e-3, 0, FaultKind::kRecover},
                {0.5e-3, 1, FaultKind::kCrash},
                {1.0e-3, 0, FaultKind::kCrash}};
  FaultInjector inj{cfg, 7, 2};
  ASSERT_EQ(inj.schedule().size(), 3u);
  EXPECT_DOUBLE_EQ(inj.schedule()[0].at_s, 0.5e-3);
  EXPECT_DOUBLE_EQ(inj.schedule()[1].at_s, 1.0e-3);
  EXPECT_DOUBLE_EQ(inj.schedule()[2].at_s, 2.0e-3);
}

TEST(FaultInjector, SimultaneousEventsBreakTiesByChipThenKind) {
  FaultConfig cfg;
  cfg.events = {{1.0e-3, 1, FaultKind::kCrash},
                {1.0e-3, 0, FaultKind::kDegrade},
                {1.0e-3, 0, FaultKind::kCrash}};
  FaultInjector inj{cfg, 7, 2};
  EXPECT_EQ(inj.schedule()[0].chip, 0);
  EXPECT_EQ(inj.schedule()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(inj.schedule()[1].chip, 0);
  EXPECT_EQ(inj.schedule()[1].kind, FaultKind::kDegrade);
  EXPECT_EQ(inj.schedule()[2].chip, 1);
}

TEST(FaultInjector, DeliveryWalksTheSchedule) {
  FaultConfig cfg;
  cfg.events = {{1.0e-3, 0, FaultKind::kCrash}, {2.0e-3, 0, FaultKind::kRecover}};
  FaultInjector inj{cfg, 1, 1};
  EXPECT_FALSE(inj.exhausted());
  EXPECT_DOUBLE_EQ(inj.next_time(), 1.0e-3);
  EXPECT_FALSE(inj.due(0.5e-3));
  EXPECT_TRUE(inj.due(1.0e-3));
  EXPECT_EQ(inj.pop().kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(inj.next_time(), 2.0e-3);
  EXPECT_EQ(inj.pop().kind, FaultKind::kRecover);
  EXPECT_TRUE(inj.exhausted());
  EXPECT_TRUE(std::isinf(inj.next_time()));
  EXPECT_FALSE(inj.due(std::numeric_limits<double>::max()));
}

MtbfConfig small_mtbf() {
  MtbfConfig m;
  m.enabled = true;
  m.mttf = Second{1.0e-3};
  m.mttr = Second{0.2e-3};
  m.horizon = Second{10.0e-3};
  return m;
}

TEST(FaultInjector, MtbfScheduleAlternatesCrashAndRecoverPerChip) {
  FaultConfig cfg;
  cfg.mtbf = small_mtbf();
  FaultInjector inj{cfg, 42, 3};
  ASSERT_FALSE(inj.schedule().empty());
  for (int chip = 0; chip < 3; ++chip) {
    FaultKind expect = FaultKind::kCrash;
    double last = 0.0;
    for (const auto& e : inj.schedule()) {
      if (e.chip != chip) continue;
      EXPECT_EQ(e.kind, expect);
      EXPECT_GT(e.at_s, last);
      EXPECT_LE(e.at_s, cfg.mtbf.horizon.value());
      last = e.at_s;
      expect = expect == FaultKind::kCrash ? FaultKind::kRecover : FaultKind::kCrash;
    }
  }
}

TEST(FaultInjector, MtbfScheduleIsSeedDeterministic) {
  FaultConfig cfg;
  cfg.mtbf = small_mtbf();
  FaultInjector a{cfg, 42, 2};
  FaultInjector b{cfg, 42, 2};
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  for (std::size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.schedule()[i].at_s, b.schedule()[i].at_s);
    EXPECT_EQ(a.schedule()[i].chip, b.schedule()[i].chip);
    EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
  }
  FaultInjector c{cfg, 43, 2};
  bool differs = a.schedule().size() != c.schedule().size();
  for (std::size_t i = 0; !differs && i < a.schedule().size(); ++i) {
    differs = a.schedule()[i].at_s != c.schedule()[i].at_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, ChipStreamsAreIndependent) {
  // Chip k's events must not depend on how many chips the fleet has:
  // per-chip derive_seed streams, not one shared stream.
  FaultConfig cfg;
  cfg.mtbf = small_mtbf();
  FaultInjector two{cfg, 42, 2};
  FaultInjector four{cfg, 42, 4};
  for (int chip = 0; chip < 2; ++chip) {
    std::vector<double> a, b;
    for (const auto& e : two.schedule()) {
      if (e.chip == chip) a.push_back(e.at_s);
    }
    for (const auto& e : four.schedule()) {
      if (e.chip == chip) b.push_back(e.at_s);
    }
    EXPECT_EQ(a, b);
  }
}

TEST(FaultInjector, DegradeProcessEmitsCapsAndRestores) {
  FaultConfig cfg;
  cfg.mtbf.enabled = true;
  cfg.mtbf.mttf = Second{100.0};  // effectively no crashes inside horizon
  cfg.mtbf.mttr = Second{1.0};
  cfg.mtbf.degrade_mttf = Second{0.5e-3};
  cfg.mtbf.degrade_mttr = Second{0.1e-3};
  cfg.mtbf.degrade_freq_cap = 0.6;
  cfg.mtbf.degrade_core_cap = 2;
  cfg.mtbf.horizon = Second{5.0e-3};
  FaultInjector inj{cfg, 9, 1};
  int degrades = 0, restores = 0;
  for (const auto& e : inj.schedule()) {
    if (e.kind == FaultKind::kDegrade) {
      ++degrades;
      EXPECT_DOUBLE_EQ(e.freq_cap, 0.6);
      EXPECT_EQ(e.core_cap, 2);
    }
    if (e.kind == FaultKind::kRestore) ++restores;
  }
  EXPECT_GT(degrades, 0);
  EXPECT_GE(degrades, restores);
  EXPECT_LE(degrades - restores, 1);
}

FaultConfig two_rack_config() {
  FaultConfig cfg;
  cfg.domains = {{"rack0", {0, 1, 2}}, {"rack1", {3, 4, 5}}};
  return cfg;
}

TEST(FaultDomains, OutageExpandsToPerChipCrashesWithPairedRecovers) {
  FaultConfig cfg = two_rack_config();
  FaultEvent outage;
  outage.at_s = 1.0e-3;
  outage.kind = FaultKind::kDomainOutage;
  outage.domain = 0;
  outage.duration_s = 0.4e-3;
  cfg.events = {outage};
  FaultInjector inj{cfg, 7, 6};
  // Only primitive kinds survive resolution: one crash + one recover per
  // member chip, each carrying the domain index.
  ASSERT_EQ(inj.schedule().size(), 6u);
  for (int i = 0; i < 3; ++i) {
    const FaultEvent& e = inj.schedule()[static_cast<std::size_t>(i)];
    EXPECT_DOUBLE_EQ(e.at_s, 1.0e-3);
    EXPECT_EQ(e.chip, i);  // deterministic member order
    EXPECT_EQ(e.kind, FaultKind::kCrash);
    EXPECT_EQ(e.domain, 0);
  }
  for (int i = 0; i < 3; ++i) {
    const FaultEvent& e = inj.schedule()[static_cast<std::size_t>(3 + i)];
    EXPECT_DOUBLE_EQ(e.at_s, 1.4e-3);
    EXPECT_EQ(e.chip, i);
    EXPECT_EQ(e.kind, FaultKind::kRecover);
    EXPECT_EQ(e.domain, 0);
  }
}

TEST(FaultDomains, ZeroDurationOutageNeverRecovers) {
  FaultConfig cfg = two_rack_config();
  FaultEvent outage;
  outage.at_s = 1.0e-3;
  outage.kind = FaultKind::kDomainOutage;
  outage.domain = 1;
  outage.duration_s = 0.0;
  cfg.events = {outage};
  FaultInjector inj{cfg, 7, 6};
  ASSERT_EQ(inj.schedule().size(), 3u);
  for (const auto& e : inj.schedule()) {
    EXPECT_EQ(e.kind, FaultKind::kCrash);
    EXPECT_EQ(e.domain, 1);
  }
}

TEST(FaultDomains, ThermalEmergencyExpandsToDegradesWithCaps) {
  FaultConfig cfg = two_rack_config();
  FaultEvent thermal;
  thermal.at_s = 0.8e-3;
  thermal.kind = FaultKind::kThermalEmergency;
  thermal.domain = 0;
  thermal.freq_cap = 0.6;
  thermal.core_cap = 2;
  thermal.duration_s = 0.5e-3;
  cfg.events = {thermal};
  FaultInjector inj{cfg, 7, 6};
  ASSERT_EQ(inj.schedule().size(), 6u);
  int degrades = 0, restores = 0;
  for (const auto& e : inj.schedule()) {
    EXPECT_EQ(e.domain, 0);
    if (e.kind == FaultKind::kDegrade) {
      ++degrades;
      EXPECT_DOUBLE_EQ(e.at_s, 0.8e-3);
      EXPECT_DOUBLE_EQ(e.freq_cap, 0.6);
      EXPECT_EQ(e.core_cap, 2);
    } else {
      ASSERT_EQ(e.kind, FaultKind::kRestore);
      ++restores;
      EXPECT_DOUBLE_EQ(e.at_s, 1.3e-3);
    }
  }
  EXPECT_EQ(degrades, 3);
  EXPECT_EQ(restores, 3);
}

TEST(FaultDomains, CorrelatedMtbfFailsWholeDomainsTogether) {
  FaultConfig cfg = two_rack_config();
  cfg.domain_mtbf.enabled = true;
  cfg.domain_mtbf.mttf = Second{1.0e-3};
  cfg.domain_mtbf.mttr = Second{0.2e-3};
  cfg.domain_mtbf.horizon = Second{10.0e-3};
  FaultInjector inj{cfg, 42, 6};
  ASSERT_FALSE(inj.schedule().empty());
  // Every event is domain-correlated, and at any event time the whole
  // member set of the domain fires together.
  std::map<std::pair<double, int>, int> cluster;
  for (const auto& e : inj.schedule()) {
    ASSERT_GE(e.domain, 0);
    const auto& members = cfg.domains[static_cast<std::size_t>(e.domain)].members;
    EXPECT_NE(std::find(members.begin(), members.end(), e.chip), members.end());
    ++cluster[{e.at_s, e.domain}];
  }
  for (const auto& [key, count] : cluster) EXPECT_EQ(count, 3) << "t=" << key.first;
}

TEST(FaultDomains, DomainStreamsAreSeedDeterministicAndIndependent) {
  FaultConfig cfg = two_rack_config();
  cfg.domain_mtbf.enabled = true;
  cfg.domain_mtbf.mttf = Second{1.0e-3};
  cfg.domain_mtbf.mttr = Second{0.2e-3};
  cfg.domain_mtbf.horizon = Second{10.0e-3};
  FaultInjector a{cfg, 42, 6};
  FaultInjector b{cfg, 42, 6};
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  for (std::size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.schedule()[i].at_s, b.schedule()[i].at_s);
    EXPECT_EQ(a.schedule()[i].chip, b.schedule()[i].chip);
    EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
  }
  // Domain 0's outage times must not depend on other domains existing:
  // per-domain derive_seed streams, not one shared stream.
  FaultConfig solo;
  solo.domains = {{"rack0", {0, 1, 2}}};
  solo.domain_mtbf = cfg.domain_mtbf;
  FaultInjector c{solo, 42, 6};
  std::vector<double> both, alone;
  for (const auto& e : a.schedule()) {
    if (e.domain == 0 && e.kind == FaultKind::kCrash) both.push_back(e.at_s);
  }
  for (const auto& e : c.schedule()) {
    if (e.domain == 0 && e.kind == FaultKind::kCrash) alone.push_back(e.at_s);
  }
  EXPECT_EQ(both, alone);
}

TEST(FaultDomains, ValidationRejectsBadDomainConfigs) {
  {
    FaultConfig cfg;  // empty member list
    cfg.domains = {{"rack0", {}}};
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg;  // overlapping domains
    cfg.domains = {{"rack0", {0, 1}}, {"rack1", {1, 2}}};
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg = two_rack_config();  // domain index out of range
    FaultEvent e;
    e.at_s = 1e-3;
    e.kind = FaultKind::kDomainOutage;
    e.domain = 2;
    cfg.events = {e};
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg;  // domain-level kind without any domains
    FaultEvent e;
    e.at_s = 1e-3;
    e.kind = FaultKind::kDomainOutage;
    e.domain = 0;
    cfg.events = {e};
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg = two_rack_config();  // domain_mtbf needs domains: ok
    cfg.domain_mtbf.enabled = true;      // ...but not a missing horizon
    cfg.domain_mtbf.mttf = Second{1e-3};
    cfg.domain_mtbf.mttr = Second{1e-4};
    EXPECT_THROW(cfg.validate(), ModelError);
  }
}

TEST(FaultDomains, InjectorRejectsMembersOutsideTheFleet) {
  // Construction-time (run-context) validation: the config cannot know
  // the fleet size, the injector does.
  FaultConfig cfg;
  cfg.domains = {{"rack0", {0, 7}}};
  FaultEvent e;
  e.at_s = 1e-3;
  e.kind = FaultKind::kDomainOutage;
  e.domain = 0;
  e.duration_s = 1e-4;
  cfg.events = {e};
  EXPECT_THROW((FaultInjector{cfg, 7, 4}), ModelError);
}

TEST(FaultConfig, AnyReflectsContent) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.any());
  cfg.events.push_back({1e-3, 0, FaultKind::kCrash});
  EXPECT_TRUE(cfg.any());
  cfg.events.clear();
  cfg.mtbf = small_mtbf();
  EXPECT_TRUE(cfg.any());
}

TEST(FaultConfig, ValidationRejectsBadConfigs) {
  {
    FaultConfig cfg;
    cfg.events.push_back({-1.0, 0, FaultKind::kCrash});
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg;
    cfg.events.push_back({1e-3, -1, FaultKind::kCrash});
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg;
    cfg.events.push_back({1e-3, 0, FaultKind::kDegrade, 1.5, 0});
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg;
    cfg.mtbf.enabled = true;  // missing mttf/mttr/horizon
    EXPECT_THROW(cfg.validate(), ModelError);
  }
  {
    FaultConfig cfg;
    cfg.mtbf = small_mtbf();
    cfg.mtbf.horizon = Second{0.0};
    EXPECT_THROW(cfg.validate(), ModelError);
  }
}

TEST(FaultDomains, RackLossScenarioIsThreadCountInvariant) {
  // The domain outage, the brownout ladder, the breakers and the
  // emergency wake all act at the epoch barrier inside one run's
  // single-threaded loop; NTSERV_THREADS only spreads independent runs
  // over a pool, so the faulted scenario is bit-identical at any width.
  const std::vector<dc::Scenario> scenarios = {dc::Scenario::by_name("rack-loss-web")};
  const auto one = dc::run_scenarios(scenarios, 1);
  const auto four = dc::run_scenarios(scenarios, 4);
  ASSERT_EQ(one.size(), 1u);
  ASSERT_EQ(four.size(), 1u);
  EXPECT_GT(one[0].faults_injected, 0u);
  EXPECT_TRUE(one[0] == four[0]);
}

}  // namespace
}  // namespace ntserv::fault
