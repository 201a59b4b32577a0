// Transducer models: I-V curve properties, MPP behaviour, parameterized
// physical-invariant sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/solve.hpp"
#include "fault/faulty_harvester.hpp"
#include "harvest/combiner.hpp"
#include "harvest/transducers.hpp"

namespace msehsim::harvest {
namespace {

env::AmbientConditions sunny(double irradiance = 800.0) {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{irradiance};
  return c;
}

env::AmbientConditions windy(double speed) {
  env::AmbientConditions c;
  c.wind_speed = MetersPerSecond{speed};
  return c;
}

env::AmbientConditions hot(double dt) {
  env::AmbientConditions c;
  c.thermal_gradient = Kelvin{dt};
  return c;
}

env::AmbientConditions shaking(double rms, double freq = 50.0) {
  env::AmbientConditions c;
  c.vibration_rms = MetersPerSecondSquared{rms};
  c.vibration_freq = Hertz{freq};
  return c;
}

// ---------------------------------------------------------------------------
// TheveninSource
// ---------------------------------------------------------------------------

TEST(Thevenin, CurrentLinearInVoltage) {
  TheveninSource s{Volts{4.0}, Ohms{2.0}};
  EXPECT_DOUBLE_EQ(s.current_at(Volts{0.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ(s.current_at(Volts{2.0}).value(), 1.0);
  EXPECT_DOUBLE_EQ(s.current_at(Volts{4.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(s.current_at(Volts{5.0}).value(), 0.0);
}

TEST(Thevenin, MaxPowerAtHalfVoc) {
  TheveninSource s{Volts{4.0}, Ohms{2.0}};
  EXPECT_DOUBLE_EQ(s.max_power().value(), 2.0);
  const Watts at_half = Volts{2.0} * s.current_at(Volts{2.0});
  EXPECT_DOUBLE_EQ(at_half.value(), s.max_power().value());
}

// ---------------------------------------------------------------------------
// PvPanel
// ---------------------------------------------------------------------------

TEST(PvPanel, DarkProducesNothing) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(0.0));
  EXPECT_DOUBLE_EQ(pv.open_circuit_voltage().value(), 0.0);
  EXPECT_DOUBLE_EQ(pv.power_at(Volts{2.0}).value(), 0.0);
}

TEST(PvPanel, VocAtStcMatchesSpec) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(1000.0));
  EXPECT_NEAR(pv.open_circuit_voltage().value(), 4.2, 0.01);
}

TEST(PvPanel, ShortCircuitCurrentScalesWithIrradiance) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(1000.0));
  const double isc_full = pv.current_at(Volts{0.0}).value();
  pv.set_conditions(sunny(500.0));
  const double isc_half = pv.current_at(Volts{0.0}).value();
  EXPECT_NEAR(isc_half, isc_full / 2.0, 1e-9);
}

TEST(PvPanel, CurrentMonotoneNonIncreasingInVoltage) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(700.0));
  double prev = pv.current_at(Volts{0.0}).value();
  for (double v = 0.05; v < 4.5; v += 0.05) {
    const double i = pv.current_at(Volts{v}).value();
    EXPECT_LE(i, prev + 1e-12);
    EXPECT_GE(i, 0.0);
    prev = i;
  }
}

TEST(PvPanel, NanConditionsNeverPoisonTheCurve) {
  // A NaN reading in the channel a transducer reads is taken as +0.0,
  // "channel absent", so it can never flow into the curve.
  PvPanel pv("pv", {});
  env::AmbientConditions nan_sun;
  nan_sun.solar_irradiance =
      WattsPerSquareMeter{std::numeric_limits<double>::quiet_NaN()};

  pv.set_conditions(nan_sun);
  const auto first = pv.maximum_power_point();
  EXPECT_FALSE(std::isnan(first.p.value()));
  EXPECT_FALSE(std::isnan(first.v.value()));

  // A NaN channel means "absent", so the curve equals the zero-input curve.
  pv.set_conditions(sunny(0.0));
  EXPECT_EQ(pv.maximum_power_point().p.value(), first.p.value());

  // NaN in an unused channel must not disturb a live channel's curve either.
  auto sun = sunny(800.0);
  pv.set_conditions(sun);
  const auto clean = pv.maximum_power_point();
  auto sun_nan = sun;
  sun_nan.water_flow =
      MetersPerSecond{std::numeric_limits<double>::quiet_NaN()};
  pv.set_conditions(sun_nan);
  const auto with_nan = pv.maximum_power_point();
  EXPECT_EQ(clean.p.value(), with_nan.p.value());
  EXPECT_EQ(clean.v.value(), with_nan.v.value());
}

TEST(PvPanel, MppNearFractionOfVoc) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(800.0));
  const auto mpp = pv.maximum_power_point();
  const double k = mpp.v.value() / pv.open_circuit_voltage().value();
  EXPECT_GT(k, 0.65);
  EXPECT_LT(k, 0.92);
  EXPECT_GT(mpp.p.value(), 0.0);
}

TEST(PvPanel, IndoorModeReadsIlluminance) {
  PvPanel::Params p;
  p.indoor = true;
  PvPanel pv("pv", p);
  env::AmbientConditions c;
  c.illuminance = Lux{500.0};
  pv.set_conditions(c);
  EXPECT_GT(pv.maximum_power_point().p.value(), 0.0);
  // Outdoor-mode irradiance must be ignored indoors.
  env::AmbientConditions c2;
  c2.solar_irradiance = WattsPerSquareMeter{1000.0};
  pv.set_conditions(c2);
  EXPECT_DOUBLE_EQ(pv.maximum_power_point().p.value(), 0.0);
}

TEST(PvPanel, IndoorPowerIsSubMilliwattAtOfficeLight) {
  PvPanel::Params p;
  p.indoor = true;
  PvPanel pv("pv", p);
  env::AmbientConditions c;
  c.illuminance = Lux{500.0};
  pv.set_conditions(c);
  const double mpp = pv.maximum_power_point().p.value();
  EXPECT_GT(mpp, 10e-6);
  EXPECT_LT(mpp, 5e-3);
}

TEST(PvPanel, RejectsBadSpecs) {
  PvPanel::Params p;
  p.voc_stc = Volts{0.0};
  EXPECT_THROW(PvPanel("x", p), SpecError);
  PvPanel::Params q;
  q.diode_ideality = 5.0;
  EXPECT_THROW(PvPanel("x", q), SpecError);
  PvPanel::Params r;
  r.series_cells = 0;
  EXPECT_THROW(PvPanel("x", r), SpecError);
}

// ---------------------------------------------------------------------------
// WindTurbine
// ---------------------------------------------------------------------------

TEST(WindTurbine, BelowCutInNoPower) {
  WindTurbine wt("wt", {});
  wt.set_conditions(windy(1.0));
  EXPECT_DOUBLE_EQ(wt.available_power().value(), 0.0);
  EXPECT_DOUBLE_EQ(wt.maximum_power_point().p.value(), 0.0);
}

TEST(WindTurbine, PowerGrowsWithCube) {
  WindTurbine wt("wt", {});
  wt.set_conditions(windy(4.0));
  const double p4 = wt.available_power().value();
  wt.set_conditions(windy(8.0));
  const double p8 = wt.available_power().value();
  EXPECT_NEAR(p8 / p4, 8.0, 0.01);
}

TEST(WindTurbine, SaturatesAtRatedSpeed) {
  WindTurbine wt("wt", {});
  wt.set_conditions(windy(10.0));
  const double rated = wt.available_power().value();
  wt.set_conditions(windy(25.0));
  EXPECT_DOUBLE_EQ(wt.available_power().value(), rated);
}

TEST(WindTurbine, ElectricalPowerNeverExceedsAerodynamic) {
  WindTurbine wt("wt", {});
  for (double v = 2.0; v <= 12.0; v += 1.0) {
    wt.set_conditions(windy(v));
    const auto mpp = wt.maximum_power_point();
    EXPECT_LE(mpp.p.value(), wt.available_power().value() + 1e-9);
  }
}

TEST(WindTurbine, WaterVariantReadsWaterChannel) {
  auto turbine = WindTurbine::water_turbine("hydro");
  EXPECT_EQ(turbine.kind(), HarvesterKind::kWaterFlow);
  env::AmbientConditions c;
  c.water_flow = MetersPerSecond{1.2};
  turbine.set_conditions(c);
  EXPECT_GT(turbine.available_power().value(), 0.0);
  // Wind channel must be ignored.
  turbine.set_conditions(windy(10.0));
  EXPECT_DOUBLE_EQ(turbine.available_power().value(), 0.0);
}

TEST(WindTurbine, RejectsBadSpecs) {
  WindTurbine::Params p;
  p.power_coefficient = 0.7;  // beyond Betz
  EXPECT_THROW(WindTurbine("x", p), SpecError);
  WindTurbine::Params q;
  q.rated = q.cut_in;
  EXPECT_THROW(WindTurbine("x", q), SpecError);
}

// ---------------------------------------------------------------------------
// Teg
// ---------------------------------------------------------------------------

TEST(Teg, VocProportionalToGradient) {
  Teg teg("teg", {});
  teg.set_conditions(hot(10.0));
  const double v10 = teg.open_circuit_voltage().value();
  teg.set_conditions(hot(5.0));
  EXPECT_NEAR(teg.open_circuit_voltage().value(), v10 / 2.0, 1e-12);
}

TEST(Teg, PowerQuadraticInGradient) {
  Teg teg("teg", {});
  teg.set_conditions(hot(6.0));
  const double p6 = teg.maximum_power_point().p.value();
  teg.set_conditions(hot(12.0));
  EXPECT_NEAR(teg.maximum_power_point().p.value() / p6, 4.0, 0.01);
}

TEST(Teg, NoGradientNoOutput) {
  Teg teg("teg", {});
  teg.set_conditions(hot(0.0));
  EXPECT_DOUBLE_EQ(teg.maximum_power_point().p.value(), 0.0);
}

// ---------------------------------------------------------------------------
// VibrationHarvester
// ---------------------------------------------------------------------------

TEST(Vibration, SilentWhenStill) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(0.0));
  EXPECT_DOUBLE_EQ(h.maximum_power_point().p.value(), 0.0);
}

TEST(Vibration, PowerQuadraticInAcceleration) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(1.0));
  const double p1 = h.maximum_power_point().p.value();
  h.set_conditions(shaking(2.0));
  EXPECT_NEAR(h.maximum_power_point().p.value() / p1, 4.0, 0.02);
}

TEST(Vibration, DetuningReducesPower) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(2.0, 50.0));
  const double on_res = h.maximum_power_point().p.value();
  h.set_conditions(shaking(2.0, 53.0));
  const double off_res = h.maximum_power_point().p.value();
  EXPECT_LT(off_res, on_res * 0.5);
}

TEST(Vibration, MppSitsNearOptimalVoltage) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(3.0));
  const auto mpp = h.maximum_power_point();
  EXPECT_NEAR(mpp.v.value(), 3.3, 0.1);
}

TEST(Vibration, ElectromagneticVariantIsLowVoltage) {
  auto h = VibrationHarvester::electromagnetic("em");
  EXPECT_EQ(h.kind(), HarvesterKind::kInductive);
  h.set_conditions(shaking(3.0));
  EXPECT_NEAR(h.maximum_power_point().v.value(), 1.2, 0.1);
}

TEST(Vibration, RejectsBadDamping) {
  VibrationHarvester::Params p;
  p.damping_ratio = 0.0;
  EXPECT_THROW(VibrationHarvester::piezo("x", p), SpecError);
}

// ---------------------------------------------------------------------------
// RfHarvester
// ---------------------------------------------------------------------------

TEST(Rf, BelowSensitivityNoOutput) {
  RfHarvester rf("rf", {});
  env::AmbientConditions c;
  c.rf_power_density = WattsPerSquareMeter{1e-5};  // 50 nW on 5 cm^2 aperture
  rf.set_conditions(c);
  EXPECT_DOUBLE_EQ(rf.maximum_power_point().p.value(), 0.0);
}

TEST(Rf, StrongFieldYieldsOutput) {
  RfHarvester rf("rf", {});
  env::AmbientConditions c;
  c.rf_power_density = WattsPerSquareMeter{5e-3};
  rf.set_conditions(c);
  const double p = rf.maximum_power_point().p.value();
  EXPECT_GT(p, 1e-6);
  // Output power never exceeds incident power.
  EXPECT_LT(p, 5e-3 * 0.005);
}

TEST(Rf, EfficiencyImprovesWithInputPower) {
  RfHarvester rf("rf", {});
  env::AmbientConditions weak;
  weak.rf_power_density = WattsPerSquareMeter{1e-3};
  env::AmbientConditions strong;
  strong.rf_power_density = WattsPerSquareMeter{100e-3};
  rf.set_conditions(weak);
  const double eff_weak =
      rf.maximum_power_point().p.value() / (1e-3 * 0.005);
  rf.set_conditions(strong);
  const double eff_strong =
      rf.maximum_power_point().p.value() / (100e-3 * 0.005);
  EXPECT_GT(eff_strong, eff_weak);
}

// ---------------------------------------------------------------------------
// AcDcSource
// ---------------------------------------------------------------------------

TEST(AcDc, KeyedToMachineryVibration) {
  AcDcSource src("acdc", {});
  src.set_conditions(shaking(0.1));  // machinery off
  EXPECT_DOUBLE_EQ(src.open_circuit_voltage().value(), 0.0);
  src.set_conditions(shaking(2.0));  // machinery energized
  EXPECT_GT(src.open_circuit_voltage().value(), 5.0);
  EXPECT_GT(src.maximum_power_point().p.value(), 1e-3);
}

TEST(AcDc, RequiresAboveFiveVolts) {
  AcDcSource::Params p;
  p.rectified_voc = Volts{4.0};
  EXPECT_THROW(AcDcSource("x", p), SpecError);
}

// ---------------------------------------------------------------------------
// Generic harvester properties, parameterized across the whole zoo
// ---------------------------------------------------------------------------

struct Sample {
  const char* name;
  std::function<std::unique_ptr<Harvester>()> make;
  env::AmbientConditions conditions;
};

class HarvesterInvariants : public ::testing::TestWithParam<int> {
 public:
  static std::vector<Sample> samples() {
    std::vector<Sample> out;
    out.push_back({"pv", [] { return std::make_unique<PvPanel>("pv", PvPanel::Params{}); },
                   sunny(600.0)});
    out.push_back(
        {"wind",
         [] { return std::make_unique<WindTurbine>("wt", WindTurbine::Params{}); },
         windy(6.0)});
    out.push_back({"teg", [] { return std::make_unique<Teg>("teg", Teg::Params{}); },
                   hot(10.0)});
    out.push_back({"piezo",
                   [] {
                     return std::make_unique<VibrationHarvester>(
                         VibrationHarvester::piezo("pz"));
                   },
                   shaking(3.0)});
    out.push_back({"rf",
                   [] {
                     return std::make_unique<RfHarvester>("rf",
                                                          RfHarvester::Params{});
                   },
                   [] {
                     env::AmbientConditions c;
                     c.rf_power_density = WattsPerSquareMeter{5e-3};
                     return c;
                   }()});
    out.push_back({"acdc",
                   [] {
                     return std::make_unique<AcDcSource>("ac", AcDcSource::Params{});
                   },
                   shaking(2.0)});
    return out;
  }
};

TEST_P(HarvesterInvariants, PowerNonNegativeEverywhere) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  const double voc = h->open_circuit_voltage().value();
  for (double v = 0.0; v <= voc * 1.2 + 0.1; v += std::max(0.01, voc / 50.0))
    EXPECT_GE(h->power_at(Volts{v}).value(), 0.0) << s.name << " at " << v;
}

TEST_P(HarvesterInvariants, ZeroCurrentAtOrAboveVoc) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  const double voc = h->open_circuit_voltage().value();
  EXPECT_NEAR(h->current_at(Volts{voc}).value(), 0.0, 1e-6) << s.name;
  EXPECT_DOUBLE_EQ(h->current_at(Volts{voc + 1.0}).value(), 0.0) << s.name;
}

TEST_P(HarvesterInvariants, MppDominatesSampledCurve) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  const auto mpp = h->maximum_power_point();
  const double voc = h->open_circuit_voltage().value();
  for (double v = 0.01; v < voc; v += voc / 37.0)
    EXPECT_LE(h->power_at(Volts{v}).value(), mpp.p.value() * (1.0 + 1e-6))
        << s.name << " at " << v;
}

TEST_P(HarvesterInvariants, NegativeTerminalVoltageBlocked) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  EXPECT_DOUBLE_EQ(h->current_at(Volts{-1.0}).value(), 0.0) << s.name;
}

INSTANTIATE_TEST_SUITE_P(AllHarvesters, HarvesterInvariants,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               HarvesterInvariants::samples()
                                   [static_cast<std::size_t>(info.param)]
                                       .name);
                         });

// ---------------------------------------------------------------------------
// MPP oracle: every query is a solve, counted by mpp_recomputes()
// ---------------------------------------------------------------------------

TEST(MppCache, RepeatedQueriesSolveTheSamePoint) {
  // There is no MPP cache: every query solves, mpp_recomputes() counts each
  // one, and equal conditions give the same bits every time.
  PvPanel pv("pv", PvPanel::Params{});
  pv.set_conditions(sunny());
  EXPECT_EQ(pv.mpp_recomputes(), 0u);

  const auto first = pv.maximum_power_point();
  EXPECT_EQ(pv.mpp_recomputes(), 1u);

  const auto again = pv.maximum_power_point();
  EXPECT_EQ(pv.mpp_recomputes(), 2u);
  EXPECT_EQ(again.v.value(), first.v.value());
  EXPECT_EQ(again.i.value(), first.i.value());
  EXPECT_EQ(again.p.value(), first.p.value());

  pv.set_conditions(sunny());
  const auto relatched = pv.maximum_power_point();
  EXPECT_EQ(pv.mpp_recomputes(), 3u);
  EXPECT_EQ(relatched.p.value(), first.p.value());
}

TEST(MppCache, AnyChangedConditionsFieldRecomputes) {
  // Every query is one solve, whichever field changed between them.
  env::AmbientConditions base = sunny();
  const std::vector<std::function<void(env::AmbientConditions&)>> mutations = {
      [](auto& c) { c.solar_irradiance = WattsPerSquareMeter{801.0}; },
      [](auto& c) { c.illuminance = Lux{500.0}; },
      [](auto& c) { c.wind_speed = MetersPerSecond{1.0}; },
      [](auto& c) { c.thermal_gradient = Kelvin{2.0}; },
      [](auto& c) { c.vibration_rms = MetersPerSecondSquared{0.1}; },
      [](auto& c) { c.vibration_freq = Hertz{10.0}; },
      [](auto& c) { c.rf_power_density = WattsPerSquareMeter{1e-6}; },
      [](auto& c) { c.water_flow = MetersPerSecond{0.2}; },
  };
  PvPanel pv("pv", PvPanel::Params{});
  pv.set_conditions(base);
  (void)pv.maximum_power_point();
  std::uint64_t expected = 1;
  for (const auto& mutate : mutations) {
    env::AmbientConditions changed = base;
    mutate(changed);
    pv.set_conditions(changed);
    (void)pv.maximum_power_point();
    EXPECT_EQ(pv.mpp_recomputes(), ++expected);
    pv.set_conditions(base);
    (void)pv.maximum_power_point();
    EXPECT_EQ(pv.mpp_recomputes(), ++expected);
  }
}

void expect_same_bits(const OperatingPoint& a, const OperatingPoint& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.v.value()),
            std::bit_cast<std::uint64_t>(b.v.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.i.value()),
            std::bit_cast<std::uint64_t>(b.i.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.p.value()),
            std::bit_cast<std::uint64_t>(b.p.value()));
}

TEST(MppCache, CachedPointMatchesAFreshPanel) {
  // A panel stepped through changing and repeated conditions answers, bit
  // for bit, what a panel built fresh under the same conditions computes.
  PvPanel cached("pv", PvPanel::Params{});
  for (const double g : {800.0, 800.0, 120.0, 800.0, 0.0, 120.0, 120.0}) {
    cached.set_conditions(sunny(g));
    PvPanel fresh("pv", PvPanel::Params{});
    fresh.set_conditions(sunny(g));
    const OperatingPoint want = fresh.maximum_power_point();
    expect_same_bits(cached.maximum_power_point(), want);
    expect_same_bits(cached.maximum_power_point(), want);
  }
  EXPECT_EQ(cached.mpp_recomputes(), 14u);
}

TEST(MppCache, CountsOneSolvePerQueryOnAllTransducerKinds) {
  // Every concrete transducer counts each query as one solve, and two
  // queries under one set_conditions give the same bits.
  const env::AmbientConditions all = [] {
    env::AmbientConditions c;
    c.solar_irradiance = WattsPerSquareMeter{600.0};
    c.wind_speed = MetersPerSecond{5.0};
    c.thermal_gradient = Kelvin{10.0};
    c.vibration_rms = MetersPerSecondSquared{2.0};
    c.vibration_freq = Hertz{50.0};
    c.rf_power_density = WattsPerSquareMeter{1e-3};
    return c;
  }();
  std::vector<std::unique_ptr<Harvester>> hs;
  hs.push_back(std::make_unique<PvPanel>("pv", PvPanel::Params{}));
  hs.push_back(std::make_unique<WindTurbine>("w", WindTurbine::Params{}));
  hs.push_back(std::make_unique<Teg>("t", Teg::Params{}));
  hs.push_back(std::make_unique<VibrationHarvester>(
      VibrationHarvester::piezo("pz")));
  hs.push_back(std::make_unique<RfHarvester>("rf", RfHarvester::Params{}));
  for (auto& h : hs) {
    h->set_conditions(all);
    const OperatingPoint first = h->maximum_power_point();
    expect_same_bits(h->maximum_power_point(), first);
    EXPECT_EQ(h->mpp_recomputes(), 2u) << h->name();
  }
}

/// Golden-section oracle for the shifted objective (u - s) I(u) over the
/// source voltage u — what a diode-OR combiner extracts behind a drop of s.
double golden_shifted_power(const Harvester& h, double s) {
  const double voc = h.open_circuit_voltage().value();
  if (voc <= s) return 0.0;
  const double u_star = golden_max_fn(
      [&h, s](double u) { return (u - s) * h.current_at(Volts{u}).value(); }, s,
      voc);
  return (u_star - s) * h.current_at(Volts{u_star}).value();
}

// ---- PV curve memo ---------------------------------------------------------
// PvPanel::compute_mpp keeps a bounded thread_local memo keyed on the bit
// patterns of every input it reads, so identical panels on one thread solve
// each curve once. Every answer must equal a fresh solve.

/// Panels with identical curves (0/1 and 3/4) and five distinct ones, more
/// than the MPP memo holds, so the memo both hits and evicts.
std::vector<PvPanel::Params> memo_panel_params() {
  PvPanel::Params outdoor;
  PvPanel::Params bigger = outdoor;
  bigger.isc_stc = Amps{0.120};
  PvPanel::Params indoor;
  indoor.indoor = true;
  PvPanel::Params dimmer = indoor;
  dimmer.indoor_derating = 0.4;
  PvPanel::Params cells = outdoor;
  cells.series_cells = 4;
  cells.diode_ideality = 1.2;
  return {outdoor, outdoor, bigger, indoor, indoor, dimmer, cells};
}

env::AmbientConditions lit(double level) {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{level};
  c.illuminance = Lux{level * 100.0};
  return c;
}

constexpr double kLightLevels[] = {800.0, 800.0, 0.0, 120.0, 800.0,
                                   350.5, 120.0, 1000.0, 800.0};

/// The voltages a sample probes: signed zeros, a negative voltage, the knee
/// (twice) and around the open-circuit voltage.
std::vector<double> probe_voltages(double v_mpp, double voc) {
  return {-0.1, -0.0, 0.0, 0.5 * v_mpp, v_mpp, v_mpp,
          0.9 * voc, voc, 1.1 * voc};
}

struct CurveSample {
  std::uint64_t v, i, p;
  std::vector<std::uint64_t> currents;
  bool operator==(const CurveSample&) const = default;
};

/// Steps every panel through kLightLevels on the calling thread, querying
/// the panels interleaved (forward, then backward) so identical panels
/// share memo entries and distinct ones evict them.
std::vector<CurveSample> interleaved_samples() {
  std::vector<PvPanel> panels;
  for (const auto& p : memo_panel_params()) panels.emplace_back("pv", p);
  std::vector<CurveSample> out;
  for (const double level : kLightLevels) {
    for (auto& pv : panels) pv.set_conditions(lit(level));
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t k = 0; k < panels.size(); ++k) {
        const PvPanel& pv = panels[pass == 0 ? k : panels.size() - 1 - k];
        const OperatingPoint mpp = pv.maximum_power_point();
        CurveSample s{std::bit_cast<std::uint64_t>(mpp.v.value()),
                      std::bit_cast<std::uint64_t>(mpp.i.value()),
                      std::bit_cast<std::uint64_t>(mpp.p.value()),
                      {}};
        for (const double v : probe_voltages(
                 mpp.v.value(), pv.open_circuit_voltage().value()))
          s.currents.push_back(
              std::bit_cast<std::uint64_t>(pv.current_at(Volts{v}).value()));
        out.push_back(std::move(s));
      }
  }
  return out;
}

/// Runs @p f on a new thread, whose thread_local memos are empty.
template <typename F>
auto on_fresh_thread(F f) {
  decltype(f()) result{};
  std::thread([&] { result = f(); }).join();
  return result;
}

/// The samples interleaved_samples() must produce, each query answered by a
/// panel built for it alone on a thread that has never solved a curve — so
/// the curve memo cannot answer.
std::vector<CurveSample> fresh_samples() {
  const auto params = memo_panel_params();
  std::vector<CurveSample> out;
  for (const double level : kLightLevels) {
    const auto fresh = [&](std::size_t k) {
      PvPanel pv("pv", params[k]);
      pv.set_conditions(lit(level));
      return pv;
    };
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t n = 0; n < params.size(); ++n) {
        const std::size_t k = pass == 0 ? n : params.size() - 1 - n;
        const OperatingPoint mpp =
            on_fresh_thread([&] { return fresh(k).maximum_power_point(); });
        const double voc = fresh(k).open_circuit_voltage().value();
        CurveSample s{std::bit_cast<std::uint64_t>(mpp.v.value()),
                      std::bit_cast<std::uint64_t>(mpp.i.value()),
                      std::bit_cast<std::uint64_t>(mpp.p.value()),
                      {}};
        for (const double v : probe_voltages(mpp.v.value(), voc))
          s.currents.push_back(on_fresh_thread([&] {
            return std::bit_cast<std::uint64_t>(
                fresh(k).current_at(Volts{v}).value());
          }));
        out.push_back(std::move(s));
      }
  }
  return out;
}

TEST(PvCurveMemo, InterleavedPanelsMatchFreshPanelsBitForBit) {
  const std::vector<CurveSample> want = fresh_samples();
  // Twice on this thread: the second run starts from a warm memo.
  EXPECT_EQ(interleaved_samples(), want);
  EXPECT_EQ(interleaved_samples(), want);
}

TEST(PvCurveMemo, TwoThreadsAtOnceMatchFreshPanelsBitForBit) {
  const std::vector<CurveSample> want = fresh_samples();
  std::latch start(2);
  std::vector<CurveSample> a, b;
  std::thread ta([&] {
    start.arrive_and_wait();
    a = interleaved_samples();
  });
  std::thread tb([&] {
    start.arrive_and_wait();
    b = interleaved_samples();
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a, want);
  EXPECT_EQ(b, want);
}

TEST(ShiftedMpp, PvNewtonMatchesGoldenSearch) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(800.0));
  for (const double drop : {0.05, 0.15, 0.3, 0.6, 1.0}) {
    const auto closed = pv.shifted_mpp(Volts{drop});
    const double oracle = golden_shifted_power(pv, drop);
    ASSERT_GT(oracle, 0.0) << drop;
    EXPECT_NEAR(closed.p.value() / oracle, 1.0, 1e-9) << drop;
  }
  // Zero shift reduces to the plain (cached) MPP bit-for-bit.
  const auto plain = pv.maximum_power_point();
  const auto zero = pv.shifted_mpp(Volts{0.0});
  EXPECT_EQ(zero.v.value(), plain.v.value());
  EXPECT_EQ(zero.p.value(), plain.p.value());
}

TEST(ShiftedMpp, WindPlateauClosedFormMatchesGoldenSearch) {
  WindTurbine wt("wt", {});
  // 5 m/s: the aero cap bites (Thevenin max 0.34 W > 0.19 W available), so
  // the closed form must use the plateau's upper edge, not just the vertex.
  wt.set_conditions(windy(5.0));
  ASSERT_FALSE(wt.thevenin_equivalent().has_value());
  for (const double drop : {0.05, 0.3, 0.7}) {
    const auto closed = wt.shifted_mpp(Volts{drop});
    const double oracle = golden_shifted_power(wt, drop);
    ASSERT_GT(oracle, 0.0) << drop;
    EXPECT_NEAR(closed.p.value() / oracle, 1.0, 1e-9) << drop;
  }
  // 9.5 m/s: cap slack, the curve is exactly the Thevenin source again.
  wt.set_conditions(windy(9.5));
  const auto eq = wt.thevenin_equivalent();
  ASSERT_TRUE(eq.has_value());
  EXPECT_DOUBLE_EQ(eq->voc.value(), wt.open_circuit_voltage().value());
  const auto closed = wt.shifted_mpp(Volts{0.3});
  const double oracle = golden_shifted_power(wt, 0.3);
  EXPECT_NEAR(closed.p.value() / oracle, 1.0, 1e-9);
}

TEST(TheveninEquivalent, LinearSourcesExposeExactSource) {
  Teg::Params tp;
  tp.seebeck_per_kelvin = Volts{0.05};
  tp.internal_resistance = Ohms{5.0};
  Teg teg("teg", tp);
  teg.set_conditions(hot(10.0));
  const auto eq = teg.thevenin_equivalent();
  ASSERT_TRUE(eq.has_value());
  EXPECT_DOUBLE_EQ(eq->voc.value(), 0.5);
  EXPECT_DOUBLE_EQ(eq->r.value(), 5.0);
  // The equivalent reproduces the curve exactly at any voltage.
  for (const double v : {0.0, 0.1, 0.25, 0.4})
    EXPECT_DOUBLE_EQ(eq->current_at(Volts{v}).value(),
                     teg.current_at(Volts{v}).value());

  PvPanel pv("pv", {});
  pv.set_conditions(sunny(800.0));
  EXPECT_FALSE(pv.thevenin_equivalent().has_value());  // diode knee

  AcDcSource::Params ap;
  AcDcSource acdc("ac", ap);
  acdc.set_conditions(shaking(1.0));  // above machinery threshold: energized
  const auto on = acdc.thevenin_equivalent();
  ASSERT_TRUE(on.has_value());
  EXPECT_DOUBLE_EQ(on->voc.value(), ap.rectified_voc.value());
  acdc.set_conditions(shaking(0.0));
  const auto off = acdc.thevenin_equivalent();
  ASSERT_TRUE(off.has_value());
  EXPECT_DOUBLE_EQ(off->voc.value(), 0.0);
}

// ---- Per-channel NaN contract ----------------------------------------------
// Each transducer sanitizes only the channels it reads when it latches
// conditions: a NaN there reads as +0.0, a NaN anywhere else changes
// nothing, and -0.0 passes through as itself.

TEST(Sanitized, MapsOnlyNanToPositiveZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(env::sanitized(Lux{nan}).value()),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(env::sanitized(Lux{-0.0}).value()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(env::sanitized(Kelvin{-3.5}).value(), -3.5);
  EXPECT_EQ(env::sanitized(Hertz{std::numeric_limits<double>::infinity()})
                .value(),
            std::numeric_limits<double>::infinity());
}

/// Sets channel @p k (AmbientConditions declaration order) to @p v.
void set_channel(env::AmbientConditions& c, int k, double v) {
  switch (k) {
    case 0: c.solar_irradiance = WattsPerSquareMeter{v}; break;
    case 1: c.illuminance = Lux{v}; break;
    case 2: c.wind_speed = MetersPerSecond{v}; break;
    case 3: c.thermal_gradient = Kelvin{v}; break;
    case 4: c.vibration_rms = MetersPerSecondSquared{v}; break;
    case 5: c.vibration_freq = Hertz{v}; break;
    case 6: c.rf_power_density = WattsPerSquareMeter{v}; break;
    default: c.water_flow = MetersPerSecond{v}; break;
  }
}

/// Every channel live, so each transducer below has a curve.
env::AmbientConditions all_channels() {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{600.0};
  c.illuminance = Lux{40000.0};
  c.wind_speed = MetersPerSecond{6.0};
  c.thermal_gradient = Kelvin{12.0};
  c.vibration_rms = MetersPerSecondSquared{2.0};
  c.vibration_freq = Hertz{50.5};
  c.rf_power_density = WattsPerSquareMeter{1e-3};
  c.water_flow = MetersPerSecond{1.5};
  return c;
}

/// The bits of a harvester's curve: Voc, the MPP, and currents from 0 V past
/// every transducer's open-circuit voltage.
std::vector<std::uint64_t> curve_bits(Harvester& h,
                                      const env::AmbientConditions& c) {
  h.set_conditions(c);
  const OperatingPoint mpp = h.maximum_power_point();
  std::vector<std::uint64_t> out{
      std::bit_cast<std::uint64_t>(h.open_circuit_voltage().value()),
      std::bit_cast<std::uint64_t>(mpp.v.value()),
      std::bit_cast<std::uint64_t>(mpp.i.value()),
      std::bit_cast<std::uint64_t>(mpp.p.value())};
  for (double v = 0.0; v <= 12.0; v += 0.125)
    out.push_back(std::bit_cast<std::uint64_t>(h.current_at(Volts{v}).value()));
  return out;
}

struct NanCase {
  const char* name;
  std::function<std::unique_ptr<Harvester>()> make;
  std::vector<int> reads;  ///< channel indices the harvester reads
};

std::vector<NanCase> nan_cases() {
  const auto pv_indoor = [] {
    PvPanel::Params p;
    p.indoor = true;
    return std::make_unique<PvPanel>("pvi", p);
  };
  return {
      {"pv", [] { return std::make_unique<PvPanel>("pv", PvPanel::Params{}); },
       {0}},
      {"pv-indoor", pv_indoor, {1}},
      {"wind",
       [] { return std::make_unique<WindTurbine>("w", WindTurbine::Params{}); },
       {2}},
      {"water",
       [] {
         return std::make_unique<WindTurbine>(
             WindTurbine::water_turbine("water"));
       },
       {7}},
      {"teg", [] { return std::make_unique<Teg>("t", Teg::Params{}); }, {3}},
      {"piezo",
       [] {
         return std::make_unique<VibrationHarvester>(
             VibrationHarvester::piezo("pz"));
       },
       {4, 5}},
      {"inductive",
       [] {
         return std::make_unique<VibrationHarvester>(
             VibrationHarvester::electromagnetic("em"));
       },
       {4, 5}},
      {"rf", [] { return std::make_unique<RfHarvester>("rf", RfHarvester::Params{}); },
       {6}},
      {"acdc", [] { return std::make_unique<AcDcSource>("ac", AcDcSource::Params{}); },
       {4}},
      {"faulty-pv",
       [] {
         auto f = std::make_unique<fault::FaultyHarvester>(
             std::make_unique<PvPanel>("pv", PvPanel::Params{}), 7);
         f->degrade(0.5);
         return f;
       },
       {0}},
      {"diode-or",
       [] {
         std::vector<std::unique_ptr<Harvester>> sources;
         sources.push_back(std::make_unique<PvPanel>("pv", PvPanel::Params{}));
         sources.push_back(
             std::make_unique<WindTurbine>("w", WindTurbine::Params{}));
         sources.push_back(std::make_unique<Teg>("t", Teg::Params{}));
         return std::make_unique<DiodeOrCombiner>("or", std::move(sources));
       },
       {0, 2, 3}},
  };
}

TEST(NanContract, EachHarvesterSanitizesExactlyTheChannelsItReads) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const env::AmbientConditions base = all_channels();
  for (const NanCase& nc : nan_cases()) {
    SCOPED_TRACE(nc.name);
    const auto live = curve_bits(*nc.make(), base);
    for (int k = 0; k < 8; ++k) {
      SCOPED_TRACE("channel " + std::to_string(k));
      const bool reads =
          std::find(nc.reads.begin(), nc.reads.end(), k) != nc.reads.end();
      env::AmbientConditions zero = base;
      set_channel(zero, k, 0.0);
      env::AmbientConditions negzero = base;
      set_channel(negzero, k, -0.0);
      env::AmbientConditions poisoned = base;
      set_channel(poisoned, k, nan);
      const auto at_zero = curve_bits(*nc.make(), zero);
      // The declared channel set is the real one: zeroing a read channel
      // moves the curve, zeroing any other does not.
      EXPECT_EQ(at_zero != live, reads);
      EXPECT_EQ(curve_bits(*nc.make(), poisoned), reads ? at_zero : live);
      EXPECT_EQ(curve_bits(*nc.make(), negzero), at_zero);
      // The same on one long-lived harvester stepped through all three.
      auto h = nc.make();
      EXPECT_EQ(curve_bits(*h, poisoned), reads ? at_zero : live);
      EXPECT_EQ(curve_bits(*h, base), live);
      EXPECT_EQ(curve_bits(*h, negzero), at_zero);
    }
  }
}

TEST(HarvesterKindNames, Coverage) {
  EXPECT_EQ(to_string(HarvesterKind::kPhotovoltaic), "Light");
  EXPECT_EQ(to_string(HarvesterKind::kWind), "Wind");
  EXPECT_EQ(to_string(HarvesterKind::kThermoelectric), "Thermal");
  EXPECT_EQ(to_string(HarvesterKind::kPiezo), "Vibration");
  EXPECT_EQ(to_string(HarvesterKind::kInductive), "Inductive");
  EXPECT_EQ(to_string(HarvesterKind::kRf), "Radio");
  EXPECT_EQ(to_string(HarvesterKind::kWaterFlow), "Water Flow");
  EXPECT_EQ(to_string(HarvesterKind::kAcDc), "AC/DC");
}

}  // namespace
}  // namespace msehsim::harvest
