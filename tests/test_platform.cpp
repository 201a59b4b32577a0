// Platform power flow: charging, discharging, brownout, hot-swap, and
// classification plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/error.hpp"
#include "harvest/transducers.hpp"
#include "power/mppt.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/platform.hpp"

namespace msehsim::systems {
namespace {

using harvest::PvPanel;
using power::Converter;
using power::InputChain;
using power::OracleMppt;
using power::OutputChain;
using storage::Supercapacitor;

env::AmbientConditions sunny(double g = 800.0) {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{g};
  return c;
}

PlatformSpec small_spec() {
  PlatformSpec s;
  s.name = "test-platform";
  s.quiescent_current = Amps{2e-6};
  return s;
}

std::unique_ptr<InputChain> pv_chain() {
  return std::make_unique<InputChain>(
      std::make_unique<PvPanel>("pv", PvPanel::Params{}),
      std::make_unique<OracleMppt>(), Converter::smart_buck_boost("fe"),
      Seconds{5.0});
}

std::unique_ptr<Supercapacitor> small_cap(double v0) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{5.0};
  p.slow_capacitance = Farads{0.0};
  p.initial_voltage = Volts{v0};
  return std::make_unique<Supercapacitor>("sc", p);
}

std::unique_ptr<node::SensorNode> small_node() {
  node::WorkloadParams w;
  w.task_period = Seconds{30.0};
  return std::make_unique<node::SensorNode>("n", node::McuParams{},
                                            node::RadioParams{}, w);
}

TEST(Platform, RequiresName) {
  PlatformSpec s;
  EXPECT_THROW(Platform{s}, SpecError);
}

TEST(Platform, SunChargesTheStore) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  p.add_storage(small_cap(2.0), 0);
  const double v0 = p.bus_voltage().value();
  for (int i = 0; i < 300; ++i)
    p.step(sunny(), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(p.bus_voltage().value(), v0);
  EXPECT_GT(p.harvested_energy().value(), 0.0);
  EXPECT_EQ(p.brownouts(), 0u);
}

TEST(Platform, NodeRunsFromStoredEnergyInTheDark) {
  Platform p(small_spec());
  p.add_storage(small_cap(4.0), 0);
  p.set_output(OutputChain(Converter::nano_ldo("out"), Volts{3.0}));
  p.set_node(small_node());
  for (int i = 0; i < 600; ++i)
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(p.node()->packets_sent(), 0u);
  EXPECT_GT(p.load_energy().value(), 0.0);
  EXPECT_LT(p.bus_voltage().value(), 4.0);  // store drained
}

TEST(Platform, EmptyStoreMeansNodeDown) {
  Platform p(small_spec());
  p.add_storage(small_cap(0.5), 0);  // below LDO dropout
  p.set_output(OutputChain(Converter::nano_ldo("out"), Volts{3.0}));
  p.set_node(small_node());
  for (int i = 0; i < 100; ++i)
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_EQ(p.node()->packets_sent(), 0u);
  EXPECT_DOUBLE_EQ(p.node()->availability(), 0.0);
}

TEST(Platform, QuiescentEnergyAccrues) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  for (int i = 0; i < 100; ++i)
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  // ~ 2 uA * 3 V * 100 s.
  EXPECT_NEAR(p.quiescent_energy().value(), 2e-6 * 3.0 * 100.0, 2e-4);
}

TEST(Platform, ChargePriorityFillsFirstStoreFirst) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  auto cap_hi = small_cap(1.0);
  auto cap_lo = small_cap(1.0);
  auto* hi = cap_hi.get();
  auto* lo = cap_lo.get();
  p.add_storage(std::move(cap_hi), 0);
  p.add_storage(std::move(cap_lo), 1);
  for (int i = 0; i < 60; ++i)
    p.step(sunny(), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(hi->stored_energy().value(), lo->stored_energy().value());
}

TEST(Platform, SurplusBeyondAllStoresIsWasted) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  // Tiny, nearly full store: most harvest has nowhere to go.
  Supercapacitor::Params sp;
  sp.main_capacitance = Farads{0.01};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{4.95};
  p.add_storage(std::make_unique<Supercapacitor>("tiny", sp), 0);
  for (int i = 0; i < 120; ++i)
    p.step(sunny(1000.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(p.wasted_energy().value(), 0.0);
}

TEST(Platform, BrownoutLatchDropsRailNextStep) {
  Platform p(small_spec());
  // A store too weak for the node's draw: max_discharge_power ~ V^2/4ESR
  // is fine, so instead start nearly empty to trigger a mid-run collapse.
  p.add_storage(small_cap(2.55), 0);
  p.set_output(OutputChain(Converter::nano_ldo("out"), Volts{2.5}));
  p.set_node(small_node());
  std::uint64_t packets_at_collapse = 0;
  for (int i = 0; i < 9000; ++i) {
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
    if (p.node()->is_up()) packets_at_collapse = p.node()->packets_sent();
  }
  // Node ran for a while, then the LDO lost headroom and the node stopped.
  EXPECT_GT(packets_at_collapse, 0u);
  EXPECT_FALSE(p.node()->is_up());
}

TEST(Platform, HotSwapReplacesDevice) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  const double e_before = p.store(0).stored_energy().value();
  auto old = p.swap_storage(0, small_cap(1.0));
  EXPECT_NE(p.store(0).stored_energy().value(), e_before);
  EXPECT_NEAR(old->stored_energy().value(), e_before, 1e-9);
}

TEST(Platform, SwapStorageValidatesSlot) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  EXPECT_THROW(p.swap_storage(5, small_cap(1.0)), SpecError);
  EXPECT_THROW(p.swap_storage(0, nullptr), SpecError);
}

TEST(Platform, ClassifyCountsStructure) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  p.add_input(pv_chain());
  p.add_storage(small_cap(3.0), 0);
  const auto c = p.classify();
  EXPECT_EQ(c.harvester_count, 2);
  EXPECT_EQ(c.storage_count, 1);
  // Two PV chains collapse into one kind entry.
  ASSERT_EQ(c.harvester_kinds.size(), 1u);
  EXPECT_EQ(c.harvester_kinds[0], harvest::HarvesterKind::kPhotovoltaic);
  EXPECT_EQ(c.energy_monitoring, "No");
  EXPECT_TRUE(c.uses_mppt);  // OracleMppt is adaptive
}

TEST(Platform, FuelCellPolicyRequiresFuelCellSlot) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  EXPECT_THROW(p.set_fuel_cell_policy(manager::FuelCellPolicy{}, 0), SpecError);
}

TEST(Platform, ManagementTickWithoutManagersIsSafe) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  p.management_tick(Seconds{0.0});  // no monitor, no policies: no crash
  EXPECT_FALSE(p.last_estimate().valid);
}

TEST(Platform, AmbientSocExcludesNonRechargeables) {
  Platform p(small_spec());
  p.add_storage(small_cap(5.0), 0);  // full
  storage::FuelCell::Params fc;
  p.add_storage(std::make_unique<storage::FuelCell>("fc", fc), 1);
  // Fuel cell (non-rechargeable) must not dilute the ambient SoC.
  EXPECT_NEAR(p.ambient_soc(), 1.0, 1e-6);
}

/// A store that serves any discharge and reports a fixed
/// max_discharge_power(), counting how often the supply check asks.
class SpyStore final : public storage::StorageDevice {
 public:
  explicit SpyStore(Watts max_power) : max_power_(max_power) {}
  [[nodiscard]] std::string_view name() const override { return "spy"; }
  [[nodiscard]] storage::StorageKind kind() const override {
    return storage::StorageKind::kSupercapacitor;
  }
  [[nodiscard]] bool rechargeable() const override { return true; }
  [[nodiscard]] Volts voltage() const override { return Volts{3.3}; }
  [[nodiscard]] Joules stored_energy() const override { return Joules{1.0}; }
  [[nodiscard]] Joules capacity() const override { return Joules{2.0}; }
  Watts charge(Watts, Seconds) override { return Watts{0.0}; }
  Watts discharge(Watts power, Seconds) override { return power; }
  void apply_leakage(Seconds) override {}
  [[nodiscard]] Watts max_discharge_power() const override {
    ++calls_;
    return max_power_;
  }
  [[nodiscard]] int calls() const { return calls_; }

 private:
  Watts max_power_;
  mutable int calls_{0};
};

/// What the supply check must cover on a dark step at the spy's 3.3 V bus:
/// the node's bus-side demand plus the power unit's quiescent draw.
Watts dark_step_need() {
  const OutputChain out(Converter::nano_ldo("out"), Volts{3.0});
  const Volts bus{3.3};
  return out.required_bus_power(small_node()->average_power(Volts{3.0}), bus) +
         bus * small_spec().quiescent_current;
}

struct SupplyCheck {
  bool rail_on;
  int front_calls;
  int back_calls;
};

/// One dark step over a two-store bank with the given supply limits.
SupplyCheck dark_step(Watts front_max, Watts back_max) {
  Platform p(small_spec());
  auto front = std::make_unique<SpyStore>(front_max);
  auto back = std::make_unique<SpyStore>(back_max);
  const SpyStore* f = front.get();
  const SpyStore* b = back.get();
  p.add_storage(std::move(front), 0);
  p.add_storage(std::move(back), 1);
  p.set_output(OutputChain(Converter::nano_ldo("out"), Volts{3.0}));
  p.set_node(small_node());
  p.step(sunny(0.0), Seconds{0.0}, Seconds{1.0});
  return {p.bus_load_energy().value() > 0.0, f->calls(), b->calls()};
}

// The front store alone covers the need exactly: the rail is up (the check
// is <=) and the store behind it is never asked.
TEST(PlatformSupplyCheck, FrontStoreCoveringTheNeedSkipsTheRest) {
  const Watts need = dark_step_need();
  ASSERT_GT(need.value(), 0.0);
  const auto tie = dark_step(need, Watts{1.0});
  EXPECT_TRUE(tie.rail_on);
  EXPECT_EQ(tie.front_calls, 1);
  EXPECT_EQ(tie.back_calls, 0);
}

TEST(PlatformSupplyCheck, ShortfallAsksTheNextStore) {
  const Watts need = dark_step_need();
  const Watts just_short{std::nextafter(need.value(), 0.0)};
  const auto covered = dark_step(just_short, Watts{1.0});
  EXPECT_TRUE(covered.rail_on);
  EXPECT_EQ(covered.back_calls, 1);
  const auto uncovered = dark_step(Watts{0.0}, just_short);
  EXPECT_FALSE(uncovered.rail_on);
  EXPECT_EQ(uncovered.front_calls, 1);
  EXPECT_EQ(uncovered.back_calls, 1);
}

}  // namespace
}  // namespace msehsim::systems
