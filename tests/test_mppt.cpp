// MPPT controllers: convergence, overhead accounting, fixed-point behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/error.hpp"
#include "harvest/transducers.hpp"
#include "power/mppt.hpp"

namespace msehsim::power {
namespace {

harvest::PvPanel lit_pv(double irradiance = 800.0) {
  harvest::PvPanel pv("pv", {});
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{irradiance};
  pv.set_conditions(c);
  return pv;
}

TEST(PerturbObserve, ConvergesNearMppOnPv) {
  auto pv = lit_pv();
  const auto mpp = pv.maximum_power_point();
  PerturbObserve::Params params;
  params.step = Volts{0.05};
  PerturbObserve po(params);
  Volts v{1.0};
  for (int i = 0; i < 300; ++i) v = po.update(pv, v);
  const double achieved = pv.power_at(v).value();
  EXPECT_GT(achieved, 0.95 * mpp.p.value());
}

TEST(PerturbObserve, TracksIrradianceChange) {
  auto pv = lit_pv(900.0);
  PerturbObserve po;
  Volts v{1.0};
  for (int i = 0; i < 200; ++i) v = po.update(pv, v);
  // Drop the light; the tracker must walk to the new MPP.
  env::AmbientConditions dim;
  dim.solar_irradiance = WattsPerSquareMeter{200.0};
  pv.set_conditions(dim);
  for (int i = 0; i < 200; ++i) v = po.update(pv, v);
  EXPECT_GT(pv.power_at(v).value(), 0.9 * pv.maximum_power_point().p.value());
}

TEST(PerturbObserve, DarkSourceParksAtMinVoltage) {
  auto pv = lit_pv(0.0);
  PerturbObserve po;
  const Volts v = po.update(pv, Volts{2.0});
  EXPECT_NEAR(v.value(), 0.1, 1e-9);
}

TEST(PerturbObserve, ReportsConfiguredOverhead) {
  PerturbObserve::Params params;
  params.overhead_per_update = Joules{42e-6};
  PerturbObserve po(params);
  EXPECT_DOUBLE_EQ(po.overhead_per_update().value(), 42e-6);
  EXPECT_DOUBLE_EQ(po.harvest_interruption().value(), 0.0);
  EXPECT_TRUE(po.adaptive());
}

// Voc in (min_voltage, min_voltage / 0.98): the bounds [min_voltage,
// 0.98 Voc] cross. The tracker sits at 0.98 Voc from every start, above the
// window or below it, without tripping std::clamp's hi >= lo precondition.
TEST(PerturbObserve, CrossedBoundsSitAtTheCurveCap) {
  auto pv = lit_pv(50.0);
  const Volts voc = pv.open_circuit_voltage();
  PerturbObserve::Params params;
  params.min_voltage = voc * 0.99;
  PerturbObserve po(params);
  for (const double start : {0.0, 0.5, 0.985, 2.0}) {
    const Volts v = po.update(pv, voc * start);
    EXPECT_EQ(v.value(), (voc * 0.98).value()) << "start " << start;
  }
}

TEST(PerturbObserve, RejectsBadStep) {
  PerturbObserve::Params params;
  params.step = Volts{0.0};
  EXPECT_THROW(PerturbObserve{params}, SpecError);
}

TEST(FractionalVoc, SetsFractionOfVoc) {
  auto pv = lit_pv();
  FractionalVoc fv;
  const Volts v = fv.update(pv, Volts{1.0});
  EXPECT_NEAR(v.value(), 0.76 * pv.open_circuit_voltage().value(), 1e-9);
}

TEST(FractionalVoc, NearOptimalOnPvCurves) {
  auto pv = lit_pv(600.0);
  FractionalVoc fv;
  const Volts v = fv.update(pv, Volts{1.0});
  EXPECT_GT(pv.power_at(v).value(), 0.9 * pv.maximum_power_point().p.value());
}

TEST(FractionalVoc, InterruptsHarvestToSample) {
  FractionalVoc fv;
  EXPECT_GT(fv.harvest_interruption().value(), 0.0);
}

TEST(FractionalVoc, RejectsBadFraction) {
  FractionalVoc::Params p;
  p.fraction = 1.5;
  EXPECT_THROW(FractionalVoc{p}, SpecError);
}

TEST(FixedPoint, AlwaysReturnsSetpoint) {
  auto pv = lit_pv();
  FixedPoint fp(Volts{2.8});
  EXPECT_DOUBLE_EQ(fp.update(pv, Volts{1.0}).value(), 2.8);
  EXPECT_DOUBLE_EQ(fp.update(pv, Volts{4.0}).value(), 2.8);
  EXPECT_FALSE(fp.adaptive());
  EXPECT_DOUBLE_EQ(fp.overhead_per_update().value(), 0.0);
}

TEST(FixedPoint, SuboptimalWhenConditionsShift) {
  // The System B compromise: a setpoint tuned for bright light loses power
  // in dim light relative to the true MPP.
  auto pv = lit_pv(1000.0);
  const Volts tuned = Volts{pv.maximum_power_point().v.value()};
  env::AmbientConditions dim;
  dim.solar_irradiance = WattsPerSquareMeter{150.0};
  pv.set_conditions(dim);
  const double fixed_power = pv.power_at(tuned).value();
  const double mpp_power = pv.maximum_power_point().p.value();
  EXPECT_LT(fixed_power, mpp_power);
}

TEST(FixedPoint, RejectsNonPositiveSetpoint) {
  EXPECT_THROW(FixedPoint(Volts{0.0}), SpecError);
}

TEST(IncCond, ConvergesNearMppOnPv) {
  auto pv = lit_pv(700.0);
  IncrementalConductance ic;
  Volts v{0.5};
  for (int i = 0; i < 300; ++i) v = ic.update(pv, v);
  EXPECT_GT(pv.power_at(v).value(), 0.95 * pv.maximum_power_point().p.value());
}

TEST(IncCond, HoldsSteadyAtMpp) {
  // Unlike P&O, inc-cond stops perturbing once the conductance condition is
  // met: the setpoint becomes stationary under constant conditions.
  auto pv = lit_pv(700.0);
  IncrementalConductance ic;
  Volts v{0.5};
  for (int i = 0; i < 300; ++i) v = ic.update(pv, v);
  const double settled = v.value();
  double wander = 0.0;
  for (int i = 0; i < 50; ++i) {
    v = ic.update(pv, v);
    wander = std::max(wander, std::fabs(v.value() - settled));
  }
  EXPECT_LT(wander, 0.06);  // at most one step of motion
}

TEST(IncCond, TracksIrradianceDrop) {
  auto pv = lit_pv(900.0);
  IncrementalConductance ic;
  Volts v{0.5};
  for (int i = 0; i < 300; ++i) v = ic.update(pv, v);
  env::AmbientConditions dim;
  dim.solar_irradiance = WattsPerSquareMeter{200.0};
  pv.set_conditions(dim);
  for (int i = 0; i < 300; ++i) v = ic.update(pv, v);
  EXPECT_GT(pv.power_at(v).value(), 0.9 * pv.maximum_power_point().p.value());
}

TEST(IncCond, DarkSourceParksAtFloor) {
  auto pv = lit_pv(0.0);
  IncrementalConductance ic;
  EXPECT_NEAR(ic.update(pv, Volts{2.0}).value(), 0.1, 1e-9);
}

TEST(IncCond, CrossedBoundsSitAtTheCurveCap) {
  auto pv = lit_pv(50.0);
  const Volts voc = pv.open_circuit_voltage();
  IncrementalConductance::Params params;
  params.min_voltage = voc * 0.99;
  IncrementalConductance ic(params);
  for (const double start : {0.0, 0.5, 0.985, 2.0}) {
    const Volts v = ic.update(pv, voc * start);
    EXPECT_EQ(v.value(), (voc * 0.98).value()) << "start " << start;
  }
}

TEST(IncCond, RejectsBadParams) {
  IncrementalConductance::Params p;
  p.step = Volts{0.0};
  EXPECT_THROW(IncrementalConductance{p}, SpecError);
  IncrementalConductance::Params q;
  q.tolerance = 0.0;
  EXPECT_THROW(IncrementalConductance{q}, SpecError);
}

TEST(Oracle, HitsExactMpp) {
  auto pv = lit_pv(750.0);
  OracleMppt oracle;
  const Volts v = oracle.update(pv, Volts{0.5});
  EXPECT_NEAR(pv.power_at(v).value(), pv.maximum_power_point().p.value(),
              pv.maximum_power_point().p.value() * 1e-9);
}

// Parameterized sweep: P&O tracking efficiency across irradiance levels
// must stay high — the property MPPT exists to provide.
class PoTrackingSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoTrackingSweep, EfficiencyAboveNinetyPercent) {
  auto pv = lit_pv(GetParam());
  PerturbObserve po;
  Volts v{0.5};
  for (int i = 0; i < 400; ++i) v = po.update(pv, v);
  const double mpp = pv.maximum_power_point().p.value();
  ASSERT_GT(mpp, 0.0);
  EXPECT_GT(pv.power_at(v).value() / mpp, 0.90) << "irradiance " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(IrradianceLevels, PoTrackingSweep,
                         ::testing::Values(100.0, 250.0, 500.0, 750.0, 1000.0));

// Fixed-point loss grows as conditions depart from the tuning point.
class FixedPointLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(FixedPointLossSweep, FixedNeverBeatsOracle) {
  auto pv = lit_pv(1000.0);
  const Volts tuned{pv.maximum_power_point().v.value()};
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{GetParam()};
  pv.set_conditions(c);
  EXPECT_LE(pv.power_at(tuned).value(),
            pv.maximum_power_point().p.value() * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Irradiance, FixedPointLossSweep,
                         ::testing::Values(50.0, 150.0, 400.0, 800.0, 1000.0));

}  // namespace
}  // namespace msehsim::power
