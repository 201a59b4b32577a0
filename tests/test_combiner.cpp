// Diode-OR source combiner (the EH-Link single-input architecture).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "fault/faulty_harvester.hpp"
#include "harvest/combiner.hpp"
#include "harvest/transducers.hpp"

namespace msehsim::harvest {
namespace {

env::AmbientConditions shaking_and_hot(double rms, double dt_kelvin) {
  env::AmbientConditions c;
  c.vibration_rms = MetersPerSecondSquared{rms};
  c.vibration_freq = Hertz{50.0};
  c.thermal_gradient = Kelvin{dt_kelvin};
  return c;
}

std::unique_ptr<DiodeOrCombiner> piezo_or_teg(double diode_drop = 0.3) {
  std::vector<std::unique_ptr<Harvester>> sources;
  sources.push_back(
      std::make_unique<VibrationHarvester>(VibrationHarvester::piezo("pz")));
  Teg::Params tp;
  tp.seebeck_per_kelvin = Volts{0.05};
  tp.internal_resistance = Ohms{5.0};
  sources.push_back(std::make_unique<Teg>("teg", tp));
  return std::make_unique<DiodeOrCombiner>("or", std::move(sources),
                                           Volts{diode_drop});
}

TEST(DiodeOr, RequiresSources) {
  EXPECT_THROW(
      DiodeOrCombiner("x", std::vector<std::unique_ptr<Harvester>>{}),
      SpecError);
}

TEST(DiodeOr, VocIsMaxSourceMinusDrop) {
  auto combiner = piezo_or_teg(0.3);
  // Piezo active (Voc = 6.6 V), TEG weak (Voc = 0.5 V): piezo dominates.
  combiner->set_conditions(shaking_and_hot(3.0, 10.0));
  const double piezo_voc = combiner->source(0).open_circuit_voltage().value();
  EXPECT_NEAR(combiner->open_circuit_voltage().value(), piezo_voc - 0.3, 1e-9);
  EXPECT_EQ(combiner->dominant_source(), 0u);
}

TEST(DiodeOr, DominantSourceFollowsConditions) {
  auto combiner = piezo_or_teg();
  // Machinery still, hot: TEG is the only source.
  combiner->set_conditions(shaking_and_hot(0.0, 10.0));
  EXPECT_EQ(combiner->dominant_source(), 1u);
  EXPECT_EQ(combiner->kind(), HarvesterKind::kThermoelectric);
  // Machinery shaking: piezo (higher voltage) takes over.
  combiner->set_conditions(shaking_and_hot(3.0, 10.0));
  EXPECT_EQ(combiner->dominant_source(), 0u);
  EXPECT_EQ(combiner->kind(), HarvesterKind::kPiezo);
}

TEST(DiodeOr, WeakerSourceIsReverseBlocked) {
  // At the combiner's MPP, a TEG whose Voc (0.25 V at 5 K) is below even the
  // diode drop sees terminal + drop above its own Voc and contributes
  // nothing: OR-ing wastes the weaker source. (A hotter TEG is a different
  // story: its low internal resistance can make the combined curve's global
  // maximum sit below the TEG cutoff, with the piezo lobe only a local one —
  // see ClosedFormFindsGlobalMppAcrossCrossover.)
  auto combiner = piezo_or_teg();
  combiner->set_conditions(shaking_and_hot(3.0, 5.0));
  const auto mpp = combiner->maximum_power_point();
  const Amps teg_alone =
      combiner->source(1).current_at(mpp.v + Volts{0.3});
  EXPECT_DOUBLE_EQ(teg_alone.value(), 0.0);
}

TEST(DiodeOr, CombinedPowerBelowSumOfIndividualMpps) {
  auto combiner = piezo_or_teg();
  combiner->set_conditions(shaking_and_hot(3.0, 10.0));
  const double or_power = combiner->maximum_power_point().p.value();
  const double sum_mpps = combiner->source(0).maximum_power_point().p.value() +
                          combiner->source(1).maximum_power_point().p.value();
  EXPECT_LT(or_power, sum_mpps);  // the per-chain architecture's advantage
  EXPECT_GT(or_power, 0.0);
}

TEST(DiodeOr, DiodeDropCostsPower) {
  auto lossless = piezo_or_teg(0.0);
  auto lossy = piezo_or_teg(0.5);
  lossless->set_conditions(shaking_and_hot(3.0, 0.0));
  lossy->set_conditions(shaking_and_hot(3.0, 0.0));
  EXPECT_GT(lossless->maximum_power_point().p.value(),
            lossy->maximum_power_point().p.value());
}

TEST(DiodeOr, AllSourcesDeadMeansDeadCombiner) {
  auto combiner = piezo_or_teg();
  combiner->set_conditions(shaking_and_hot(0.0, 0.0));
  EXPECT_DOUBLE_EQ(combiner->maximum_power_point().p.value(), 0.0);
  EXPECT_DOUBLE_EQ(combiner->open_circuit_voltage().value(), 0.0);
}

TEST(DiodeOr, NegativeTerminalBlocked) {
  auto combiner = piezo_or_teg();
  combiner->set_conditions(shaking_and_hot(3.0, 10.0));
  EXPECT_DOUBLE_EQ(combiner->current_at(Volts{-1.0}).value(), 0.0);
}

TEST(DiodeOr, PowerCurveNonNegativeUpToVoc) {
  auto combiner = piezo_or_teg();
  combiner->set_conditions(shaking_and_hot(2.0, 12.0));
  const double voc = combiner->open_circuit_voltage().value();
  for (double v = 0.0; v <= voc * 1.1; v += voc / 40.0)
    EXPECT_GE(combiner->power_at(Volts{v}).value(), 0.0) << v;
}

TEST(DiodeOrMpp, ClosedFormMatchesGoldenAcrossCrossover) {
  // Piezo (Voc 6.6 V) OR-ed with a high-impedance TEG whose Voc sweeps
  // through the piezo's as the gradient rises (crossover near 13.2 K). The
  // conduction cutoffs stay within 2x of each other across the sweep, which
  // keeps the summed curve unimodal — so the 80-probe golden-section search
  // is a trustworthy oracle for the piecewise closed form.
  for (const double dt_kelvin :
       {7.0, 9.0, 11.0, 13.0, 13.2, 14.0, 17.0, 20.0, 24.0}) {
    std::vector<std::unique_ptr<Harvester>> sources;
    sources.push_back(
        std::make_unique<VibrationHarvester>(VibrationHarvester::piezo("pz")));
    Teg::Params tp;
    tp.seebeck_per_kelvin = Volts{0.5};
    tp.internal_resistance = Ohms{8000.0};
    sources.push_back(std::make_unique<Teg>("teg", tp));
    DiodeOrCombiner combiner("or", std::move(sources), Volts{0.3});
    combiner.set_conditions(shaking_and_hot(3.0, dt_kelvin));
    const auto closed = combiner.maximum_power_point();
    const auto golden = combiner.golden_section_mpp();
    ASSERT_GT(golden.p.value(), 0.0) << dt_kelvin;
    EXPECT_NEAR(closed.p.value() / golden.p.value(), 1.0, 1e-9) << dt_kelvin;
    EXPECT_NEAR(closed.v.value(), golden.v.value(), 1e-6) << dt_kelvin;
    // The closed form may only ever beat the search, never trail it.
    EXPECT_GE(closed.p.value(), golden.p.value() * (1.0 - 1e-12)) << dt_kelvin;
  }
}

TEST(DiodeOrMpp, ClosedFormMatchesGoldenWithPvDominant) {
  // A PV knee (no Thevenin equivalent) behind the diode: the closed form
  // must route through PvPanel's shifted log-domain Newton.
  std::vector<std::unique_ptr<Harvester>> sources;
  sources.push_back(
      std::make_unique<PvPanel>("pv", PvPanel::Params{}));
  Teg::Params tp;
  tp.seebeck_per_kelvin = Volts{0.05};
  tp.internal_resistance = Ohms{5.0};
  sources.push_back(std::make_unique<Teg>("teg", tp));
  DiodeOrCombiner combiner("or", std::move(sources), Volts{0.3});
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{800.0};
  c.thermal_gradient = Kelvin{2.0};  // TEG Voc 0.1 V < drop: never conducts
  combiner.set_conditions(c);
  const auto closed = combiner.maximum_power_point();
  const auto golden = combiner.golden_section_mpp();
  ASSERT_GT(golden.p.value(), 0.0);
  EXPECT_NEAR(closed.p.value() / golden.p.value(), 1.0, 1e-9);
  EXPECT_GE(closed.p.value(), golden.p.value() * (1.0 - 1e-12));
}

TEST(DiodeOrMpp, FindsGlobalMppTheSearchMisses) {
  // The hot-TEG piezo mixture is bimodal: the piezo lobe near 3.15 V is only
  // local, while the low-impedance TEG pushes the global maximum below its
  // 0.2 V cutoff. The closed form must find the global one.
  auto combiner = piezo_or_teg();
  combiner->set_conditions(shaking_and_hot(3.0, 10.0));
  const auto mpp = combiner->maximum_power_point();
  EXPECT_LT(mpp.v.value(), 0.2);
  // Strictly more power than the piezo-lobe stationary point.
  const double piezo_lobe = combiner->power_at(Volts{3.15}).value();
  EXPECT_GT(mpp.p.value(), piezo_lobe * 1.5);
  // And it is the curve's true maximum on a fine sweep.
  double best = 0.0;
  const double voc = combiner->open_circuit_voltage().value();
  for (double v = 0.0; v <= voc; v += voc / 20000.0)
    best = std::max(best, combiner->power_at(Volts{v}).value());
  EXPECT_GE(mpp.p.value(), best * (1.0 - 1e-9));
}

TEST(DiodeOrMpp, FaultedSourceTransitionInvalidatesMppCache) {
  Teg::Params tp;
  tp.seebeck_per_kelvin = Volts{0.05};
  tp.internal_resistance = Ohms{5.0};
  auto faulty = std::make_unique<fault::FaultyHarvester>(
      std::make_unique<Teg>("teg", tp), 99);
  auto* handle = faulty.get();
  std::vector<std::unique_ptr<Harvester>> sources;
  sources.push_back(std::move(faulty));
  DiodeOrCombiner combiner("or", std::move(sources), Volts{0.3});

  const auto c = shaking_and_hot(0.0, 10.0);  // TEG Voc 0.5 V, cutoff 0.2 V
  combiner.set_conditions(c);
  const auto before = combiner.maximum_power_point();
  ASSERT_GT(before.p.value(), 0.0);

  // Degrade the wrapped source between two identical-conditions steps: the
  // combiner's MPP must follow the source's curve, not the conditions.
  handle->degrade(0.25);
  combiner.set_conditions(c);
  const auto degraded = combiner.maximum_power_point();
  // Uniform current scaling leaves the argmax and scales power by exactly f.
  EXPECT_DOUBLE_EQ(degraded.v.value(), before.v.value());
  EXPECT_DOUBLE_EQ(degraded.p.value(), 0.25 * before.p.value());
  const auto golden = combiner.golden_section_mpp();
  EXPECT_NEAR(degraded.p.value() / golden.p.value(), 1.0, 1e-9);

  // Healing is a transition too: the point is bit-identical to the
  // original again.
  handle->heal();
  combiner.set_conditions(c);
  const auto healed = combiner.maximum_power_point();
  EXPECT_EQ(healed.v.value(), before.v.value());
  EXPECT_EQ(healed.p.value(), before.p.value());
}

}  // namespace
}  // namespace msehsim::harvest
