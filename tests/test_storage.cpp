// Storage models: energy conservation, SoC bounds, leakage, chemistry
// presets, fuel cell semantics; parameterized invariants across all devices.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/random.hpp"
#include "reference_storage.hpp"
#include "storage/battery.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/supercapacitor.hpp"
#include "storage/switched.hpp"

namespace msehsim::storage {
namespace {

constexpr Seconds kDt{1.0};

// ---------------------------------------------------------------------------
// Supercapacitor
// ---------------------------------------------------------------------------

Supercapacitor small_cap(double v0 = 2.5) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{10.0};
  p.initial_voltage = Volts{v0};
  return Supercapacitor("sc", p);
}

TEST(Supercap, InitialVoltageRespected) {
  auto sc = small_cap(2.5);
  EXPECT_DOUBLE_EQ(sc.voltage().value(), 2.5);
}

TEST(Supercap, ChargingRaisesVoltage) {
  auto sc = small_cap(2.0);
  const double v0 = sc.voltage().value();
  sc.charge(Watts{0.5}, Seconds{10.0});
  EXPECT_GT(sc.voltage().value(), v0);
}

TEST(Supercap, DischargingLowersVoltage) {
  auto sc = small_cap(3.0);
  const double v0 = sc.voltage().value();
  const Watts got = sc.discharge(Watts{0.5}, Seconds{10.0});
  EXPECT_GT(got.value(), 0.0);
  EXPECT_LT(sc.voltage().value(), v0);
}

TEST(Supercap, ChargeStopsAtMaxVoltage) {
  auto sc = small_cap(4.9);
  for (int i = 0; i < 2000; ++i) sc.charge(Watts{5.0}, kDt);
  EXPECT_LE(sc.voltage().value(), 5.0 + 1e-9);
  // Fully charged: further charge is refused.
  EXPECT_DOUBLE_EQ(sc.charge(Watts{1.0}, kDt).value(), 0.0);
}

TEST(Supercap, DischargeStopsWhenEmpty) {
  auto sc = small_cap(0.5);
  double total = 0.0;
  for (int i = 0; i < 10000; ++i) total += sc.discharge(Watts{1.0}, kDt).value();
  // Can never deliver more than the initially stored energy.
  EXPECT_LE(total, 0.5 * 10.0 * 0.5 * 0.5 + 1e-6);
  EXPECT_DOUBLE_EQ(sc.discharge(Watts{1.0}, kDt).value(), 0.0);
}

TEST(Supercap, EnergyConservationOnChargePacket) {
  // Accepted bus energy >= stored energy delta (ESR losses are internal).
  auto sc = small_cap(2.0);
  const double e0 = sc.stored_energy().value();
  const Watts accepted = sc.charge(Watts{1.0}, Seconds{5.0});
  const double e1 = sc.stored_energy().value();
  EXPECT_GE(accepted.value() * 5.0 + 1e-9, e1 - e0);
  EXPECT_GT(e1, e0);
}

TEST(Supercap, LeakageDecaysVoltage) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{1.0};
  p.leakage_resistance = Ohms{1000.0};  // tau ~ 17 min: fast for the test
  p.initial_voltage = Volts{4.0};
  Supercapacitor sc("leaky", p);
  sc.apply_leakage(Seconds{1000.0});
  EXPECT_NEAR(sc.voltage().value(), 4.0 * std::exp(-1.0), 0.05);
}

TEST(Supercap, RedistributionSagsAfterFastCharge) {
  // Charge the main branch quickly; the slow branch then pulls the terminal
  // voltage down — the survey ref [9] behaviour.
  Supercapacitor::Params p;
  p.main_capacitance = Farads{10.0};
  p.slow_capacitance = Farads{2.0};
  p.redistribution_resistance = Ohms{20.0};
  p.initial_voltage = Volts{0.0};
  Supercapacitor sc("twobranch", p);
  for (int i = 0; i < 30; ++i) sc.charge(Watts{2.0}, kDt);
  const double v_peak = sc.voltage().value();
  for (int i = 0; i < 600; ++i) sc.apply_leakage(kDt);
  EXPECT_LT(sc.voltage().value(), v_peak);
  EXPECT_GT(sc.slow_branch_voltage().value(), 0.0);
}

TEST(Supercap, LithiumIonCapacitorHasVoltageFloor) {
  auto lic = Supercapacitor::lithium_ion_capacitor("lic", Farads{40.0});
  EXPECT_EQ(lic.kind(), StorageKind::kLithiumIonCapacitor);
  // At the floor it reports empty and refuses to discharge.
  EXPECT_DOUBLE_EQ(lic.stored_energy().value(), 0.0);
  EXPECT_DOUBLE_EQ(lic.discharge(Watts{0.1}, kDt).value(), 0.0);
  lic.charge(Watts{1.0}, Seconds{100.0});
  EXPECT_GT(lic.stored_energy().value(), 0.0);
  EXPECT_GT(lic.discharge(Watts{0.1}, kDt).value(), 0.0);
}

TEST(Supercap, VoltageDependentCapacitanceHoldsMoreEnergy) {
  // With C(v) = C0 + k v, the device stores strictly more energy at a given
  // voltage than the constant-C0 device (ref [9] behaviour).
  Supercapacitor::Params flat;
  flat.main_capacitance = Farads{10.0};
  flat.slow_capacitance = Farads{0.0};
  flat.initial_voltage = Volts{4.0};
  Supercapacitor constant_c("c", flat);
  Supercapacitor::Params sloped = flat;
  sloped.voltage_capacitance_slope = 1.0;  // +1 F per volt
  Supercapacitor varying_c("v", sloped);
  EXPECT_GT(varying_c.stored_energy().value(), constant_c.stored_energy().value());
  EXPECT_GT(varying_c.capacity().value(), constant_c.capacity().value());
}

TEST(Supercap, VoltageDependentCapacitanceChargeRoundTrip) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{5.0};
  p.slow_capacitance = Farads{0.0};
  p.voltage_capacitance_slope = 0.8;
  p.esr = Ohms{0.0};
  p.initial_voltage = Volts{1.0};
  Supercapacitor sc("kv", p);
  // Lossless device: accepted energy matches the stored delta to within the
  // per-step discretization of the C(v) path, and never under-counts.
  const double e0 = sc.stored_energy().value();
  double in = 0.0;
  for (int i = 0; i < 10; ++i) in += sc.charge(Watts{2.0}, Seconds{1.0}).value();
  const double delta = sc.stored_energy().value() - e0;
  EXPECT_LE(delta, in + 1e-9);                // no energy creation
  EXPECT_NEAR(in, delta, 0.02 * in);          // tight bookkeeping
  // Voltage rises less than the constant-C device would (more charge fits).
  Supercapacitor::Params q = p;
  q.voltage_capacitance_slope = 0.0;
  Supercapacitor flat("flat", q);
  flat.charge(Watts{2.0}, Seconds{10.0});
  EXPECT_LT(sc.voltage().value(), flat.voltage().value());
}

TEST(Supercap, RejectsNegativeCapacitanceSlope) {
  Supercapacitor::Params p;
  p.voltage_capacitance_slope = -0.1;
  EXPECT_THROW(Supercapacitor("x", p), SpecError);
}

TEST(Supercap, RejectsBadSpecs) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{0.0};
  EXPECT_THROW(Supercapacitor("x", p), SpecError);
  Supercapacitor::Params q;
  q.initial_voltage = Volts{9.0};  // above max
  EXPECT_THROW(Supercapacitor("x", q), SpecError);
}

// ---------------------------------------------------------------------------
// Battery
// ---------------------------------------------------------------------------

TEST(Battery, LiIonOcvRangeMatchesChemistry) {
  auto full = Battery::li_ion("b", AmpHours{0.1}, 1.0);
  auto empty = Battery::li_ion("b", AmpHours{0.1}, 0.0);
  EXPECT_NEAR(full.voltage().value(), 4.2, 1e-9);
  EXPECT_NEAR(empty.voltage().value(), 3.0, 1e-9);
}

TEST(Battery, VoltageMonotoneInSoc) {
  double prev = 0.0;
  for (double soc = 0.0; soc <= 1.0; soc += 0.1) {
    auto b = Battery::li_ion("b", AmpHours{0.1}, soc);
    EXPECT_GE(b.voltage().value(), prev);
    prev = b.voltage().value();
  }
}

TEST(Battery, ChargeIncreasesSoc) {
  auto b = Battery::li_ion("b", AmpHours{0.1}, 0.5);
  const double soc0 = b.soc();
  const Watts accepted = b.charge(Watts{0.2}, Seconds{60.0});
  EXPECT_GT(accepted.value(), 0.0);
  EXPECT_GT(b.soc(), soc0);
}

TEST(Battery, DischargeDecreasesSocAndDeliversRequested) {
  auto b = Battery::li_ion("b", AmpHours{0.1}, 0.8);
  const double soc0 = b.soc();
  const Watts got = b.discharge(Watts{0.05}, Seconds{60.0});
  EXPECT_NEAR(got.value(), 0.05, 1e-6);
  EXPECT_LT(b.soc(), soc0);
}

TEST(Battery, CannotOvercharge) {
  auto b = Battery::li_ion("b", AmpHours{0.01}, 0.99);
  for (int i = 0; i < 5000; ++i) b.charge(Watts{1.0}, kDt);
  EXPECT_LE(b.soc(), 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(b.charge(Watts{1.0}, kDt).value(), 0.0);
}

TEST(Battery, CannotOverdischarge) {
  auto b = Battery::li_ion("b", AmpHours{0.001}, 0.05);
  for (int i = 0; i < 50000; ++i) b.discharge(Watts{1.0}, kDt);
  EXPECT_GE(b.soc(), 0.0);
  EXPECT_DOUBLE_EQ(b.discharge(Watts{1.0}, kDt).value(), 0.0);
}

TEST(Battery, DischargePowerCappedByMatchedLoad) {
  auto b = Battery::li_ion("b", AmpHours{1.0}, 0.5);
  const double p_max = b.max_discharge_power().value();
  const Watts got = b.discharge(Watts{1000.0}, kDt);
  EXPECT_LE(got.value(), p_max + 1e-9);
}

TEST(Battery, CoulombicLossOnCharge) {
  // Same cell, different coulombic efficiency: the lossy one stores ~85 %
  // of the charge the ideal one does for the same bus-side packet.
  Battery::Params ideal = Battery::nimh("x", AmpHours{1.0}, 0.5).params();
  ideal.coulombic_efficiency = 1.0;
  Battery::Params lossy = ideal;
  lossy.coulombic_efficiency = 0.85;
  Battery a("ideal", ideal);
  Battery b("lossy", lossy);
  const Coulombs qa0 = a.charge_state();
  const Coulombs qb0 = b.charge_state();
  a.charge(Watts{0.5}, Seconds{100.0});
  b.charge(Watts{0.5}, Seconds{100.0});
  const double da = (a.charge_state() - qa0).value();
  const double db = (b.charge_state() - qb0).value();
  EXPECT_GT(da, 0.0);
  EXPECT_NEAR(db / da, 0.85, 0.01);
}

TEST(Battery, SelfDischargeRates) {
  auto nimh = Battery::nimh("n", AmpHours{1.0}, 1.0);
  auto thinfilm = Battery::thin_film("t", AmpHours{1.0}, 1.0);
  const Seconds month{30.0 * 86400.0};
  const double nimh_full = nimh.charge_state().value();
  const double tf_full = thinfilm.charge_state().value();
  nimh.apply_leakage(month);
  thinfilm.apply_leakage(month);
  // Charge-ratio decay matches the configured per-month rates.
  EXPECT_NEAR(nimh.charge_state().value() / nimh_full, 0.8, 0.001);
  EXPECT_NEAR(thinfilm.charge_state().value() / tf_full, 0.995, 0.001);
}

TEST(Battery, PrimaryLithiumRefusesCharge) {
  auto b = Battery::primary_lithium("p", AmpHours{1.0});
  EXPECT_FALSE(b.rechargeable());
  EXPECT_DOUBLE_EQ(b.charge(Watts{1.0}, kDt).value(), 0.0);
  EXPECT_GT(b.discharge(Watts{0.01}, kDt).value(), 0.0);
}

TEST(Battery, PackVoltageScalesWithCells) {
  auto pack = Battery::nimh_aa_pack("p", 2, 0.5);
  EXPECT_NEAR(pack.voltage().value(), 2.52, 0.01);  // 2 x 1.26 V
  auto pack4 = Battery::nimh_aa_pack("p4", 4, 0.5);
  EXPECT_NEAR(pack4.voltage().value(), 5.04, 0.01);
}

TEST(Battery, CapacityEnergyConsistent) {
  auto b = Battery::li_ion("b", AmpHours{0.1}, 1.0);
  // 0.1 Ah * 3600 * mean OCV (~3.66 V): expect within 10 %.
  EXPECT_NEAR(b.capacity().value(), 0.1 * 3600.0 * 3.66, 0.1 * 3600.0 * 0.4);
  EXPECT_NEAR(b.stored_energy().value(), b.capacity().value(),
              b.capacity().value() * 1e-6);
}

TEST(Battery, RejectsBadSpecs) {
  Battery::Params p;
  p.rated_capacity = AmpHours{0.0};
  EXPECT_THROW(Battery("x", p), SpecError);
  Battery::Params q;
  q.ocv_curve = {4.0, 3.0, 3.5, 3.6, 3.7};  // non-monotone
  EXPECT_THROW(Battery("x", q), SpecError);
  EXPECT_THROW(Battery::nimh_aa_pack("x", 0), SpecError);
}

TEST(Battery, NoAgingByDefault) {
  auto b = Battery::li_ion("b", AmpHours{0.05}, 0.5);
  for (int i = 0; i < 2000; ++i) {
    b.charge(Watts{0.3}, Seconds{10.0});
    b.discharge(Watts{0.3}, Seconds{10.0});
  }
  EXPECT_DOUBLE_EQ(b.state_of_health(), 1.0);
  EXPECT_GT(b.equivalent_full_cycles(), 1.0);
}

TEST(Battery, CyclingFadesCapacity) {
  Battery::Params p = Battery::li_ion("x", AmpHours{0.05}, 0.5).params();
  p.capacity_fade_per_cycle = 1e-3;  // exaggerated for test speed
  Battery b("aging", p);
  const double cap_new = b.capacity().value();
  for (int i = 0; i < 4000; ++i) {
    b.charge(Watts{0.3}, Seconds{10.0});
    b.discharge(Watts{0.3}, Seconds{10.0});
  }
  EXPECT_LT(b.state_of_health(), 1.0);
  EXPECT_LT(b.capacity().value(), cap_new);
  // SoH tracks equivalent full cycles linearly.
  EXPECT_NEAR(b.state_of_health(),
              1.0 - 1e-3 * b.equivalent_full_cycles(), 1e-9);
}

TEST(Battery, AgedCellHoldsLessCharge) {
  Battery::Params p = Battery::li_ion("x", AmpHours{0.01}, 0.9).params();
  p.capacity_fade_per_cycle = 2e-3;
  Battery b("aged", p);
  // Cycle hard, then try to fill up: effective full charge < rated.
  for (int i = 0; i < 3000; ++i) {
    b.charge(Watts{0.2}, Seconds{10.0});
    b.discharge(Watts{0.2}, Seconds{10.0});
  }
  for (int i = 0; i < 20000; ++i) b.charge(Watts{0.2}, Seconds{10.0});
  EXPECT_LT(b.charge_state().value(), to_coulombs(AmpHours{0.01}).value());
  EXPECT_NEAR(b.soc(), 1.0, 0.02);  // full relative to its aged capacity
}

TEST(Battery, SohFlooredAboveZero) {
  Battery::Params p = Battery::li_ion("x", AmpHours{0.001}, 0.5).params();
  p.capacity_fade_per_cycle = 0.05;
  Battery b("wreck", p);
  for (int i = 0; i < 20000; ++i) {
    b.charge(Watts{0.5}, Seconds{10.0});
    b.discharge(Watts{0.5}, Seconds{10.0});
  }
  EXPECT_GE(b.state_of_health(), 0.1);
}

// ---------------------------------------------------------------------------
// FuelCell
// ---------------------------------------------------------------------------

TEST(FuelCell, DisabledDeliversNothing) {
  FuelCell fc("fc", {});
  EXPECT_DOUBLE_EQ(fc.discharge(Watts{0.1}, kDt).value(), 0.0);
  EXPECT_DOUBLE_EQ(fc.voltage().value(), 0.0);
  EXPECT_DOUBLE_EQ(fc.max_discharge_power().value(), 0.0);
}

TEST(FuelCell, EnabledDeliversUpToMaxPower) {
  FuelCell fc("fc", {});
  fc.set_enabled(true);
  EXPECT_GT(fc.voltage().value(), 0.0);
  const Watts got = fc.discharge(Watts{10.0}, kDt);
  EXPECT_NEAR(got.value(), 0.5, 1e-9);  // default max_power
}

TEST(FuelCell, FuelConsumptionIncludesConversionLoss) {
  FuelCell::Params p;
  p.reserve = Joules{100.0};
  p.conversion_efficiency = 0.5;
  FuelCell fc("fc", p);
  fc.set_enabled(true);
  // Deliver 10 J electrical -> consumes 20 J of fuel.
  double delivered = 0.0;
  for (int i = 0; i < 20; ++i) delivered += fc.discharge(Watts{0.5}, kDt).value();
  EXPECT_NEAR(delivered, 10.0, 1e-9);
  EXPECT_NEAR(fc.depletion(), 0.2, 1e-9);
}

TEST(FuelCell, ReserveExhausts) {
  FuelCell::Params p;
  p.reserve = Joules{1.0};
  p.max_power = Watts{1.0};
  FuelCell fc("fc", p);
  fc.set_enabled(true);
  double total = 0.0;
  for (int i = 0; i < 100; ++i) total += fc.discharge(Watts{1.0}, kDt).value();
  EXPECT_NEAR(total, p.reserve.value() * p.conversion_efficiency, 1e-9);
  EXPECT_DOUBLE_EQ(fc.discharge(Watts{1.0}, kDt).value(), 0.0);
}

TEST(FuelCell, ChargeAlwaysRefused) {
  FuelCell fc("fc", {});
  fc.set_enabled(true);
  EXPECT_DOUBLE_EQ(fc.charge(Watts{1.0}, kDt).value(), 0.0);
  EXPECT_FALSE(fc.rechargeable());
}

TEST(FuelCell, StandbyBurnsFuelOnlyWhenEnabled) {
  FuelCell::Params p;
  p.reserve = Joules{100.0};
  p.standby_power = Watts{0.01};
  FuelCell fc("fc", p);
  const double e0 = fc.stored_energy().value();
  fc.apply_leakage(Seconds{100.0});
  EXPECT_DOUBLE_EQ(fc.stored_energy().value(), e0);  // disabled: no burn
  fc.set_enabled(true);
  fc.apply_leakage(Seconds{100.0});
  EXPECT_LT(fc.stored_energy().value(), e0);
}

// ---------------------------------------------------------------------------
// Cross-device invariants (parameterized)
// ---------------------------------------------------------------------------

struct DeviceFactory {
  const char* name;
  std::function<std::unique_ptr<StorageDevice>()> make;
};

class StorageInvariants : public ::testing::TestWithParam<int> {
 public:
  static std::vector<DeviceFactory> factories() {
    return {
        {"supercap",
         [] {
           Supercapacitor::Params p;
           p.main_capacitance = Farads{5.0};
           p.initial_voltage = Volts{2.5};
           return std::make_unique<Supercapacitor>("sc", p);
         }},
        {"liion",
         [] {
           return std::make_unique<Battery>(
               Battery::li_ion("li", AmpHours{0.05}, 0.5));
         }},
        {"nimh",
         [] {
           return std::make_unique<Battery>(
               Battery::nimh("ni", AmpHours{0.05}, 0.5));
         }},
        {"thinfilm",
         [] {
           return std::make_unique<Battery>(
               Battery::thin_film("tf", AmpHours{0.7e-3}, 0.5));
         }},
        {"primary",
         [] {
           return std::make_unique<Battery>(
               Battery::primary_lithium("pl", AmpHours{0.5}));
         }},
        {"lic",
         [] {
           auto lic = Supercapacitor::lithium_ion_capacitor("lic", Farads{10.0});
           lic.charge(Watts{0.5}, Seconds{60.0});
           return std::make_unique<Supercapacitor>(std::move(lic));
         }},
    };
  }
};

TEST_P(StorageInvariants, SocAlwaysInUnitInterval) {
  auto dev = factories()[static_cast<std::size_t>(GetParam())].make();
  for (int i = 0; i < 200; ++i) {
    dev->charge(Watts{0.5}, kDt);
    EXPECT_GE(dev->soc(), 0.0);
    EXPECT_LE(dev->soc(), 1.0 + 1e-9);
  }
  for (int i = 0; i < 400; ++i) {
    dev->discharge(Watts{0.5}, kDt);
    EXPECT_GE(dev->soc(), -1e-12);
  }
}

TEST_P(StorageInvariants, DischargeNeverExceedsRequest) {
  auto dev = factories()[static_cast<std::size_t>(GetParam())].make();
  for (double p = 0.001; p < 2.0; p *= 4.0) {
    const Watts got = dev->discharge(Watts{p}, kDt);
    EXPECT_LE(got.value(), p + 1e-12);
    EXPECT_GE(got.value(), 0.0);
  }
}

TEST_P(StorageInvariants, ChargeNeverExceedsOffer) {
  auto dev = factories()[static_cast<std::size_t>(GetParam())].make();
  for (double p = 0.001; p < 2.0; p *= 4.0) {
    const Watts took = dev->charge(Watts{p}, kDt);
    EXPECT_LE(took.value(), p + 1e-12);
    EXPECT_GE(took.value(), 0.0);
  }
}

TEST_P(StorageInvariants, EnergyOutNeverExceedsEnergyInPlusInitial) {
  auto dev = factories()[static_cast<std::size_t>(GetParam())].make();
  const double initial = dev->stored_energy().value();
  double in = 0.0;
  double out = 0.0;
  for (int i = 0; i < 500; ++i) {
    in += dev->charge(Watts{0.2}, kDt).value() * kDt.value();
    out += dev->discharge(Watts{0.3}, kDt).value() * kDt.value();
  }
  EXPECT_LE(out, in + initial + 1e-6);
}

TEST_P(StorageInvariants, LeakageNeverIncreasesEnergy) {
  auto dev = factories()[static_cast<std::size_t>(GetParam())].make();
  const double e0 = dev->stored_energy().value();
  dev->apply_leakage(Seconds{3600.0});
  EXPECT_LE(dev->stored_energy().value(), e0 + 1e-9);
}

TEST_P(StorageInvariants, ZeroPowerPacketsAreNoOps) {
  auto dev = factories()[static_cast<std::size_t>(GetParam())].make();
  const double e0 = dev->stored_energy().value();
  EXPECT_DOUBLE_EQ(dev->charge(Watts{0.0}, kDt).value(), 0.0);
  EXPECT_DOUBLE_EQ(dev->discharge(Watts{0.0}, kDt).value(), 0.0);
  EXPECT_DOUBLE_EQ(dev->stored_energy().value(), e0);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, StorageInvariants, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               StorageInvariants::factories()
                                   [static_cast<std::size_t>(info.param)]
                                       .name);
                         });

// ---------------------------------------------------------------------------
// SwitchedStorage gate
// ---------------------------------------------------------------------------

SwitchedStorage switched_cap(bool connected = false) {
  return SwitchedStorage(std::make_unique<Supercapacitor>(small_cap(2.5)),
                         connected);
}

TEST(SwitchedStorage, OpenGateBlocksPowerButNotLeakage) {
  auto s = switched_cap(false);
  EXPECT_DOUBLE_EQ(s.charge(Watts{1.0}, kDt).value(), 0.0);
  EXPECT_DOUBLE_EQ(s.discharge(Watts{1.0}, kDt).value(), 0.0);
  EXPECT_DOUBLE_EQ(s.max_discharge_power().value(), 0.0);
  // Self-discharge continues behind an open gate — a shelved reserve still
  // ages.
  const Joules before = s.stored_energy();
  for (int i = 0; i < 3600; ++i) s.apply_leakage(kDt);
  EXPECT_LT(s.stored_energy().value(), before.value());
}

TEST(SwitchedStorage, ClosedGateForwardsToInner) {
  auto s = switched_cap(true);
  EXPECT_GT(s.discharge(Watts{0.5}, kDt).value(), 0.0);
  EXPECT_GT(s.max_discharge_power().value(), 0.0);
  EXPECT_GT(s.charge(Watts{0.5}, kDt).value(), 0.0);
  EXPECT_EQ(s.kind(), s.inner().kind());
  EXPECT_DOUBLE_EQ(s.voltage().value(), s.inner().voltage().value());
}

TEST(SwitchedStorage, ConnectCountTracksClosingEdges) {
  auto s = switched_cap(false);
  EXPECT_EQ(s.connect_count(), 0u);
  s.set_connected(true);
  s.set_connected(true);  // already closed: not an edge
  s.set_connected(false);
  s.set_connected(true);
  EXPECT_EQ(s.connect_count(), 2u);
  // Starting connected counts as the first closing edge.
  EXPECT_EQ(switched_cap(true).connect_count(), 1u);
}

// ---------------------------------------------------------------------------
// Step-path memos: every cached read equals a fresh evaluation, bit for bit
// ---------------------------------------------------------------------------

using msehsim::testing::bits;

/// Every battery preset, plus empty, full and -0.0-charge states and an
/// aging cell whose capacity depends on charge throughput.
std::vector<Battery> memo_batteries() {
  std::vector<Battery> out = {
      Battery::li_ion("li", AmpHours{0.1}),
      Battery::li_ion("li-empty", AmpHours{0.1}, 0.0),
      Battery::li_ion("li-negzero", AmpHours{0.1}, -0.0),
      Battery::li_ion("li-full", AmpHours{0.1}, 1.0),
      Battery::nimh("nimh", AmpHours{2.0}),
      Battery::nimh_aa_pack("aa", 2, 0.9),
      Battery::thin_film("tf", AmpHours{50e-6}),
      Battery::thin_film("tf-full", AmpHours{50e-6}, 1.0),
      Battery::primary_lithium("prim", AmpHours{1.0}),
      Battery::primary_lithium("prim-empty", AmpHours{1.0}, 0.0),
  };
  Battery::Params aging;
  aging.capacity_fade_per_cycle = 0.09;
  aging.initial_soc = 0.3;
  out.emplace_back("aging", aging);
  aging.initial_soc = -0.0;
  out.emplace_back("aging-negzero", aging);
  return out;
}

/// Reads every cached quantity of @p b in a random order (some twice) and
/// compares each with the uncached reference.
void expect_reads_match_reference(const Battery& b, Pcg32& rng) {
  for (int k = 0; k < 4; ++k) {
    switch (rng.next_below(5)) {
      case 0:
        ASSERT_EQ(bits(b.voltage().value()),
                  bits(msehsim::testing::reference_voltage(b).value()));
        break;
      case 1:
        ASSERT_EQ(
            bits(b.max_discharge_power().value()),
            bits(msehsim::testing::reference_max_discharge_power(b).value()));
        break;
      case 2:
        ASSERT_EQ(bits(b.stored_energy().value()),
                  bits(msehsim::testing::reference_stored_energy(b).value()));
        break;
      case 3:
        ASSERT_EQ(bits(b.capacity().value()),
                  bits(msehsim::testing::reference_capacity(b).value()));
        break;
      default: {
        const double cap = msehsim::testing::reference_capacity(b).value();
        const double soc =
            cap > 0.0
                ? msehsim::testing::reference_stored_energy(b).value() / cap
                : 0.0;
        ASSERT_EQ(bits(b.soc()), bits(soc));
      }
    }
  }
}

double log_uniform(Pcg32& rng, double lo_exp, double hi_exp) {
  return std::pow(10.0, rng.uniform(lo_exp, hi_exp));
}

TEST(BatteryMemo, RandomOperationsMatchTheUncachedReference) {
  for (const std::uint64_t seed : {1u, 2u, 20131u}) {
    for (auto b : memo_batteries()) {
      SCOPED_TRACE(std::string(b.name()) + " seed " + std::to_string(seed));
      Pcg32 rng(seed);
      for (int op = 0; op < 400; ++op) {
        const Seconds dt{log_uniform(rng, -1.0, 3.0)};
        switch (rng.next_below(7)) {
          case 0: b.charge(Watts{log_uniform(rng, -9.0, 1.0)}, dt); break;
          case 1: b.discharge(Watts{log_uniform(rng, -9.0, 1.0)}, dt); break;
          case 2: b.charge(Watts{1e3}, dt); break;      // to the current limit
          case 3: b.discharge(Watts{1e3}, dt); break;   // towards empty
          case 4: b.apply_leakage(Seconds{log_uniform(rng, 0.0, 7.0)}); break;
          case 5:
            if (rng.next_below(8) == 0)
              b.inject_capacity_fade(rng.uniform(0.0, 0.3));
            else
              b.set_leakage_multiplier(rng.uniform(0.0, 5.0));
            break;
          default: break;  // read the unchanged state again
        }
        expect_reads_match_reference(b, rng);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Same charge and health, different throughput: an aging cell emptied and
// refilled by the same current-limited dq. The stored-energy memo was keyed
// at the first visit, and the capacity fade since must still show.
TEST(BatteryMemo, ThroughputIsPartOfTheStateKey) {
  Battery::Params p;
  p.capacity_fade_per_cycle = 0.09;
  p.initial_soc = 0.0;
  Battery b("aging", p);
  ASSERT_GT(b.charge(Watts{10.0}, kDt).value(), 0.0);
  const Coulombs first = b.charge_state();
  const double energy_before = b.stored_energy().value();
  ASSERT_GT(b.discharge(Watts{10.0}, kDt).value(), 0.0);
  ASSERT_EQ(b.charge_state().value(), 0.0);
  ASSERT_GT(b.charge(Watts{10.0}, kDt).value(), 0.0);
  ASSERT_EQ(bits(b.charge_state().value()), bits(first.value()));
  EXPECT_NE(bits(b.stored_energy().value()), bits(energy_before));
  EXPECT_EQ(bits(b.stored_energy().value()),
            bits(msehsim::testing::reference_stored_energy(b).value()));
  EXPECT_EQ(bits(b.voltage().value()),
            bits(msehsim::testing::reference_voltage(b).value()));
}

// A capacity fade that leaves the charge below the new capacity changes
// only fault_health_; every read must follow it.
TEST(BatteryMemo, FaultHealthIsPartOfTheStateKey) {
  auto b = Battery::li_ion("li", AmpHours{0.1}, 0.2);
  const double v = b.voltage().value();
  const double e = b.stored_energy().value();
  const double m = b.max_discharge_power().value();
  const Coulombs charge = b.charge_state();
  b.inject_capacity_fade(0.25);
  ASSERT_EQ(bits(b.charge_state().value()), bits(charge.value()));
  EXPECT_NE(bits(b.voltage().value()), bits(v));
  EXPECT_NE(bits(b.stored_energy().value()), bits(e));
  EXPECT_NE(bits(b.max_discharge_power().value()), bits(m));
  EXPECT_EQ(bits(b.voltage().value()),
            bits(msehsim::testing::reference_voltage(b).value()));
}

// Platform::step stops summing max_discharge_power() once the sum covers the
// demand. That is exact only if every term is >= 0 and never NaN, for every
// device type, under every operation a run can apply.
// stored_energy walks the OCV segment forward across its 64 slices instead
// of rescanning the breakpoints per slice; the result must be the
// reference's bits on random curves and random charge, throughput and
// health states.
TEST(BatteryEnergy, SegmentWalkMatchesTheReferenceBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 20131u}) {
    Pcg32 rng(seed, stream_key("battery-energy"));
    for (int cell = 0; cell < 40; ++cell) {
      Battery::Params p;
      double v = rng.uniform(0.5, 3.0);
      for (double& knot : p.ocv_curve) {
        // Flat segments now and then: equal neighbouring knots.
        if (rng.next_below(4) != 0) v += rng.uniform(0.0, 0.8);
        knot = v;
      }
      p.rated_capacity = AmpHours{log_uniform(rng, -5.0, 0.5)};
      p.capacity_fade_per_cycle = rng.next_below(2) == 0 ? 0.0 : rng.uniform(0.0, 0.09);
      const double socs[] = {0.0, -0.0, 1.0, rng.uniform(0.0, 1.0)};
      p.initial_soc = socs[rng.next_below(4)];
      Battery b("walk", p);
      SCOPED_TRACE("seed " + std::to_string(seed) + " cell " +
                   std::to_string(cell));
      for (int op = 0; op < 60; ++op) {
        const Seconds dt{log_uniform(rng, -1.0, 3.5)};
        switch (rng.next_below(4)) {
          case 0: b.charge(Watts{log_uniform(rng, -6.0, 1.0)}, dt); break;
          case 1: b.discharge(Watts{log_uniform(rng, -6.0, 1.0)}, dt); break;
          case 2: b.inject_capacity_fade(rng.uniform(0.0, 0.2)); break;
          default: b.charge(Watts{1e3}, dt); break;
        }
        ASSERT_EQ(bits(b.stored_energy().value()),
                  bits(msehsim::testing::reference_stored_energy(b).value()));
      }
    }
  }
}

TEST(StorageContract, MaxDischargePowerIsNonNegativeAndNeverNaN) {
  std::vector<std::function<std::unique_ptr<StorageDevice>()>> makers;
  for (const auto& b : memo_batteries())
    makers.push_back([b] { return std::make_unique<Battery>(b); });
  makers.push_back([] { return std::make_unique<Supercapacitor>(small_cap(0.0)); });
  makers.push_back([] { return std::make_unique<Supercapacitor>(small_cap(4.9)); });
  makers.push_back([] {
    Supercapacitor::Params p;
    p.initial_voltage = Volts{2.0};
    p.voltage_capacitance_slope = 2.0;
    return std::make_unique<Supercapacitor>("sc-slope", p);
  });
  makers.push_back([] {
    return std::make_unique<Supercapacitor>(
        Supercapacitor::lithium_ion_capacitor("lic", Farads{40.0}));
  });
  makers.push_back([] {
    FuelCell::Params p;
    p.reserve = Joules{50.0};
    auto fc = std::make_unique<FuelCell>("fc", p);
    fc->set_enabled(true);
    return fc;
  });
  makers.push_back([] {
    return std::make_unique<SwitchedStorage>(
        std::make_unique<Battery>(Battery::li_ion("r", AmpHours{0.05}, 0.5)),
        true);
  });
  makers.push_back([] {
    return std::make_unique<SwitchedStorage>(
        std::make_unique<Supercapacitor>(small_cap(3.0)), false);
  });
  for (const std::uint64_t seed : {1u, 20131u}) {
    for (std::size_t m = 0; m < makers.size(); ++m) {
      auto d = makers[m]();
      SCOPED_TRACE(std::string(d->name()) + " seed " + std::to_string(seed));
      Pcg32 rng(seed);
      for (int op = 0; op < 400; ++op) {
        const Seconds dt{log_uniform(rng, -1.0, 3.0)};
        switch (rng.next_below(7)) {
          case 0: d->charge(Watts{log_uniform(rng, -9.0, 3.0)}, dt); break;
          case 1: d->discharge(Watts{log_uniform(rng, -9.0, 3.0)}, dt); break;
          case 2: d->apply_leakage(Seconds{log_uniform(rng, 0.0, 7.0)}); break;
          case 3:
            if (rng.next_below(8) == 0)
              d->inject_capacity_fade(rng.uniform(0.0, 0.5));
            break;
          case 4: d->set_leakage_multiplier(rng.uniform(0.0, 10.0)); break;
          case 5:
            if (auto* fc = dynamic_cast<FuelCell*>(d.get()))
              fc->set_enabled(rng.next_below(2) == 0);
            if (auto* sw = dynamic_cast<SwitchedStorage*>(d.get()))
              sw->set_connected(rng.next_below(2) == 0);
            break;
          default: break;
        }
        const double p = d->max_discharge_power().value();
        ASSERT_FALSE(std::isnan(p)) << "op " << op;
        ASSERT_GE(p, 0.0) << "op " << op;
      }
    }
  }
}

TEST(StorageKindNames, Coverage) {
  EXPECT_EQ(to_string(StorageKind::kSupercapacitor), "Supercap");
  EXPECT_EQ(to_string(StorageKind::kLiIon), "Li-ion");
  EXPECT_EQ(to_string(StorageKind::kNiMH), "NiMH");
  EXPECT_EQ(to_string(StorageKind::kThinFilm), "Thin-film");
  EXPECT_EQ(to_string(StorageKind::kPrimaryLithium), "Li primary");
  EXPECT_EQ(to_string(StorageKind::kFuelCell), "Fuel cell");
  EXPECT_EQ(to_string(StorageKind::kLithiumIonCapacitor), "LIC");
}

}  // namespace
}  // namespace msehsim::storage
