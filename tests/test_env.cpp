// Environment generators: determinism, physical plausibility, presets,
// trace playback, compiled-trace snapshots.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "env/channels.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "env/trace_cache.hpp"
#include "reference_channels.hpp"
#include "reference_trace.hpp"

namespace msehsim::env {
namespace {

constexpr Seconds kStep{60.0};
constexpr double kDay = 86400.0;

TEST(TimeHelpers, HourOfDayWraps) {
  EXPECT_DOUBLE_EQ(hour_of_day(Seconds{0.0}), 0.0);
  EXPECT_DOUBLE_EQ(hour_of_day(Seconds{kDay / 2}), 12.0);
  EXPECT_DOUBLE_EQ(hour_of_day(Seconds{kDay + 3600.0}), 1.0);
}

TEST(TimeHelpers, DayIndex) {
  EXPECT_EQ(day_index(Seconds{0.0}), 0);
  EXPECT_EQ(day_index(Seconds{kDay * 2.5}), 2);
}

TEST(SolarChannel, ClearSkyZeroAtNightPositiveAtNoon) {
  SolarChannel solar({}, 1);
  EXPECT_DOUBLE_EQ(solar.clear_sky(Seconds{0.0}).value(), 0.0);  // midnight
  EXPECT_GT(solar.clear_sky(Seconds{kDay / 2}).value(), 400.0);  // noon, summer
}

TEST(SolarChannel, ClearSkyPeaksAtNoon) {
  SolarChannel solar({}, 1);
  const double at9 = solar.clear_sky(Seconds{9.0 * 3600}).value();
  const double at12 = solar.clear_sky(Seconds{12.0 * 3600}).value();
  const double at17 = solar.clear_sky(Seconds{17.0 * 3600}).value();
  EXPECT_GT(at12, at9);
  EXPECT_GT(at12, at17);
}

TEST(SolarChannel, CloudsOnlyAttenuate) {
  SolarChannel cloudy({}, 7);
  SolarChannel reference({}, 7);
  for (double t = 0.0; t < kDay; t += kStep.value()) {
    const auto got = cloudy.advance(Seconds{t}, kStep);
    const auto clear = reference.clear_sky(Seconds{t});
    EXPECT_LE(got.value(), clear.value() + 1e-9);
    EXPECT_GE(got.value(), 0.0);
  }
}

TEST(SolarChannel, DeterministicAcrossRuns) {
  SolarChannel a({}, 99);
  SolarChannel b({}, 99);
  for (double t = 0.0; t < kDay; t += kStep.value())
    EXPECT_EQ(a.advance(Seconds{t}, kStep).value(),
              b.advance(Seconds{t}, kStep).value());
}

TEST(SolarChannel, RejectsBadSpec) {
  SolarChannel::Params p;
  p.cloud_attenuation = 1.5;
  EXPECT_THROW(SolarChannel(p, 1), msehsim::SpecError);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ChannelStepMemos, MatchThePerStepFormulasBitForBit) {
  // The memoized terms depend only on dt or on the day, so step through dt
  // changes (and back to an earlier dt) and across three midnights, and
  // compare every sample with the formulas evaluated afresh each step.
  SolarChannel::Params sp;
  sp.mean_clear_spell = Seconds{1800.0};  // frequent flips: both states' memo
  sp.mean_cloudy_spell = Seconds{900.0};
  SolarChannel solar(sp, 7);
  testing::ReferenceSolar ref_solar(sp, 7);
  WindChannel wind({}, 8);
  testing::ReferenceWind ref_wind({}, 8);
  ThermalChannel thermal({}, 9);
  testing::ReferenceThermal ref_thermal({}, 9);

  const double dts[] = {60.0, 5.0, 60.0, 17.5, 300.0, 0.25};
  int flips = 0;
  bool was_cloudy = false;
  std::size_t step = 0;
  for (double t = 0.0; t < 3.5 * kDay; ++step) {
    const Seconds now{t};
    const Seconds dt{dts[(step / 400) % 6]};
    ASSERT_EQ(bits(solar.advance(now, dt).value()),
              bits(ref_solar.advance(now, dt).value()))
        << "solar step " << step;
    ASSERT_EQ(solar.cloudy(), ref_solar.cloudy()) << "step " << step;
    flips += solar.cloudy() != was_cloudy;
    was_cloudy = solar.cloudy();
    ASSERT_EQ(bits(wind.advance(now, dt).value()),
              bits(ref_wind.advance(now, dt).value()))
        << "wind step " << step;
    ASSERT_EQ(bits(thermal.advance(now, dt).value()),
              bits(ref_thermal.advance(now, dt).value()))
        << "thermal step " << step;
    // clear_sky on its own, jumping back a day and forward again.
    const Seconds yesterday{t - kDay};
    ASSERT_EQ(bits(solar.clear_sky(yesterday).value()),
              bits(ref_solar.clear_sky(yesterday).value()))
        << "clear_sky step " << step;
    t += dt.value();
  }
  EXPECT_GT(flips, 20);  // both cloud-leave probabilities were used
}

TEST(IndoorLightChannel, FollowsOfficeSchedule) {
  IndoorLightChannel light({}, 3);
  // 3 AM on a weekday: off level.
  const auto night = light.advance(Seconds{3.0 * 3600}, kStep);
  EXPECT_LT(night.value(), 50.0);
  // 11 AM on day 0 (weekday): on level.
  const auto day = light.advance(Seconds{11.0 * 3600}, kStep);
  EXPECT_GT(day.value(), 300.0);
}

TEST(IndoorLightChannel, NeverNegative) {
  IndoorLightChannel::Params p;
  p.noise_fraction = 0.8;  // absurd noise still must clamp
  IndoorLightChannel light(p, 4);
  for (double t = 0.0; t < kDay; t += kStep.value())
    EXPECT_GE(light.advance(Seconds{t}, kStep).value(), 0.0);
}

TEST(WindChannel, MeanNearWeibullMean) {
  WindChannel wind({}, 11);
  double sum = 0.0;
  int n = 0;
  for (double t = 0.0; t < 30.0 * kDay; t += 300.0) {
    sum += wind.advance(Seconds{t}, Seconds{300.0}).value();
    ++n;
  }
  // Weibull(k=2, lambda=4.5) mean ~ 3.99 m/s; diurnal modulation averages out.
  EXPECT_NEAR(sum / n, 4.0, 0.6);
}

TEST(WindChannel, TemporalCorrelation) {
  // Adjacent 1-minute samples should be much closer than independent draws.
  WindChannel wind({}, 12);
  double prev = wind.advance(Seconds{0.0}, kStep).value();
  double sum_abs_diff = 0.0;
  int n = 0;
  for (double t = kStep.value(); t < kDay; t += kStep.value()) {
    const double cur = wind.advance(Seconds{t}, kStep).value();
    sum_abs_diff += std::fabs(cur - prev);
    prev = cur;
    ++n;
  }
  EXPECT_LT(sum_abs_diff / n, 1.0);  // independent Weibull pairs differ by ~2
}

TEST(WindChannel, NonNegative) {
  WindChannel wind({}, 13);
  for (double t = 0.0; t < kDay; t += kStep.value())
    EXPECT_GE(wind.advance(Seconds{t}, kStep).value(), 0.0);
}

TEST(HvacFlowChannel, OffOutsideSchedule) {
  HvacFlowChannel hvac({}, 5);
  EXPECT_DOUBLE_EQ(hvac.advance(Seconds{2.0 * 3600}, kStep).value(), 0.0);
  EXPECT_GT(hvac.advance(Seconds{12.0 * 3600}, kStep).value(), 0.5);
}

TEST(ThermalChannel, GradientBoundedByTargets) {
  ThermalChannel thermal({}, 21);
  ThermalChannel::Params def;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value()) {
    const double g = thermal.advance(Seconds{t}, kStep).value();
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, def.gradient_on.value() + 1e-9);
  }
}

TEST(ThermalChannel, ReachesOnGradientEventually) {
  ThermalChannel thermal({}, 22);
  double peak = 0.0;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value())
    peak = std::max(peak, thermal.advance(Seconds{t}, kStep).value());
  EXPECT_GT(peak, 8.0);  // approaches gradient_on = 12 K
}

TEST(VibrationChannel, TogglesBetweenLevels) {
  VibrationChannel vib({}, 31);
  bool saw_on = false;
  bool saw_off = false;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value()) {
    const auto s = vib.advance(Seconds{t}, kStep);
    EXPECT_GT(s.frequency.value(), 0.0);
    if (s.rms.value() > 1.0) saw_on = true;
    if (s.rms.value() < 0.2) saw_off = true;
  }
  EXPECT_TRUE(saw_on);
  EXPECT_TRUE(saw_off);
}

TEST(RfChannel, BackgroundPlusBursts) {
  RfChannel rf({}, 41);
  RfChannel::Params def;
  bool saw_burst = false;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value()) {
    const double s = rf.advance(Seconds{t}, kStep).value();
    EXPECT_GE(s, def.background.value() - 1e-12);
    if (s > def.background.value() * 2) saw_burst = true;
  }
  EXPECT_TRUE(saw_burst);
}

TEST(WaterFlowChannel, FlowsOnlyInIrrigationWindows) {
  WaterFlowChannel water({}, 51);
  // 03:00 — outside both windows.
  EXPECT_DOUBLE_EQ(water.advance(Seconds{3.0 * 3600}, kStep).value(), 0.0);
  // 06:30 — inside the morning window.
  EXPECT_GT(water.advance(Seconds{6.5 * 3600}, kStep).value(), 0.5);
  // 17:30 — inside the evening window.
  EXPECT_GT(water.advance(Seconds{17.5 * 3600}, kStep).value(), 0.5);
}

TEST(Environment, OutdoorPresetHasSunAndWind) {
  auto e = Environment::outdoor(1);
  bool saw_sun = false;
  bool saw_wind = false;
  for (double t = 0.0; t < kDay; t += kStep.value()) {
    const auto c = e.advance(Seconds{t}, kStep);
    if (c.solar_irradiance.value() > 100.0) saw_sun = true;
    if (c.wind_speed.value() > 1.0) saw_wind = true;
    EXPECT_DOUBLE_EQ(c.illuminance.value(), 0.0);
    EXPECT_DOUBLE_EQ(c.water_flow.value(), 0.0);
  }
  EXPECT_TRUE(saw_sun);
  EXPECT_TRUE(saw_wind);
}

TEST(Environment, IndoorIndustrialPresetChannels) {
  auto e = Environment::indoor_industrial(2);
  bool saw_lux = false;
  bool saw_vib = false;
  bool saw_dt = false;
  for (double t = 0.0; t < 3.0 * kDay; t += kStep.value()) {
    const auto c = e.advance(Seconds{t}, kStep);
    EXPECT_DOUBLE_EQ(c.solar_irradiance.value(), 0.0);
    if (c.illuminance.value() > 100.0) saw_lux = true;
    if (c.vibration_rms.value() > 1.0) saw_vib = true;
    if (c.thermal_gradient.value() > 5.0) saw_dt = true;
  }
  EXPECT_TRUE(saw_lux);
  EXPECT_TRUE(saw_vib);
  EXPECT_TRUE(saw_dt);
}

TEST(Environment, AgriculturalPresetHasWater) {
  auto e = Environment::agricultural(3);
  bool saw_water = false;
  for (double t = 0.0; t < kDay; t += kStep.value())
    if (e.advance(Seconds{t}, kStep).water_flow.value() > 0.5) saw_water = true;
  EXPECT_TRUE(saw_water);
}

TEST(Environment, DeterministicWithSameSeed) {
  auto a = Environment::indoor_industrial(77);
  auto b = Environment::indoor_industrial(77);
  for (double t = 0.0; t < kDay; t += kStep.value()) {
    const auto ca = a.advance(Seconds{t}, kStep);
    const auto cb = b.advance(Seconds{t}, kStep);
    EXPECT_EQ(ca.illuminance.value(), cb.illuminance.value());
    EXPECT_EQ(ca.vibration_rms.value(), cb.vibration_rms.value());
    EXPECT_EQ(ca.rf_power_density.value(), cb.rf_power_density.value());
  }
}

TEST(TraceEnvironment, PlaysBackAndLoops) {
  const auto csv = msehsim::parse_csv(
      "time,solar_irradiance,wind_speed\n0,100,2\n10,200,3\n20,300,4\n");
  TraceEnvironment trace(csv);
  EXPECT_DOUBLE_EQ(trace.duration().value(), 20.0);
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{0.0}, Seconds{1.0}).solar_irradiance.value(),
                   100.0);
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{12.0}, Seconds{1.0}).solar_irradiance.value(),
                   200.0);
  // Wraps modulo duration: t = 25 -> trace time 5 -> still row 0.
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{25.0}, Seconds{1.0}).solar_irradiance.value(),
                   100.0);
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{12.0}, Seconds{1.0}).wind_speed.value(), 3.0);
}

TEST(TraceEnvironment, MissingColumnsReadZero) {
  const auto csv = msehsim::parse_csv("time,illuminance\n0,400\n100,500\n");
  TraceEnvironment trace(csv);
  const auto c = trace.advance(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(c.illuminance.value(), 400.0);
  EXPECT_DOUBLE_EQ(c.solar_irradiance.value(), 0.0);
  EXPECT_DOUBLE_EQ(c.vibration_rms.value(), 0.0);
}

TEST(TraceEnvironment, RequiresTimeColumn) {
  const auto csv = msehsim::parse_csv("x,y\n1,2\n3,4\n");
  EXPECT_THROW(TraceEnvironment{csv}, msehsim::SpecError);
}

TEST(TraceEnvironment, LoopBoundaryRoundingPlaysFirstRowNotEndMarker) {
  // fl(0.4 - 0.1) rounds the duration UP to 0.30000000000000004, so for
  // now = 0.3 (mathematically exactly one full loop, phase 0) the sampler
  // used to compute t = 0.1 + fmod(0.3, 0.30000000000000004) = 0.4 and
  // binary-search onto the end-marker row — playing the final sample for a
  // step that should restart the loop.
  const auto csv = msehsim::parse_csv(
      "time,solar_irradiance\n0.1,100\n0.25,200\n0.4,300\n");
  TraceEnvironment trace(csv);
  EXPECT_DOUBLE_EQ(
      trace.advance(Seconds{0.3}, Seconds{0.1}).solar_irradiance.value(),
      100.0);
  // now == duration() exactly is the same phase-zero case.
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{trace.duration().value()}, Seconds{0.1})
                       .solar_irradiance.value(),
                   100.0);
  // Mid-loop samples are untouched by the clamp.
  EXPECT_DOUBLE_EQ(
      trace.advance(Seconds{0.2}, Seconds{0.1}).solar_irradiance.value(),
      200.0);
  EXPECT_DOUBLE_EQ(
      trace.advance(Seconds{0.05}, Seconds{0.1}).solar_irradiance.value(),
      100.0);
}

TEST(TraceEnvironment, MmapBackedPlaybackWrapsBitIdenticallyAtTheBoundary) {
  // The same fl(0.4 - 0.1) boundary as above, now through the full
  // compile -> persist -> mmap pipeline: CSV playback is compiled into a
  // CompiledTrace (one slot per dt step, clamp applied at compile time),
  // round-tripped through the on-disk TraceCache, and replayed from the
  // mapping. The wrap at now = 3 * fl(0.1) (llround(now/dt) % steps) must
  // reproduce the clamped first row, bit for bit, from the mapped doubles.
  const auto csv = msehsim::parse_csv(
      "time,solar_irradiance\n0.1,100\n0.25,200\n0.4,300\n");
  const Seconds dt{0.1};
  TraceEnvironment live(csv);
  const Seconds duration = live.duration();

  TraceEnvironment source(csv);
  const auto compiled = CompiledTrace::compile(source, dt, duration);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "msehsim_env_wrap_cache";
  std::filesystem::remove_all(dir);
  TraceCache cache(dir.string());
  const TraceCacheKey key{"wrap-trace", 0, dt, duration};
  cache.store(key, *compiled);
  const auto mapped = cache.load(key);
  ASSERT_NE(mapped, nullptr);
  ASSERT_TRUE(mapped->mapped());
  ASSERT_EQ(mapped->step_count(), compiled->step_count());

  CompiledEnvironment playback(mapped);
  // Two full loops of the accumulated-time stepping scheme. Step 3 lands on
  // now = 0.30000000000000004 — the searched boundary constant — where the
  // clamp must yield row 0's 100, not the end marker's 300.
  TraceEnvironment fresh(csv);
  std::size_t step = 0;
  for (Seconds now{0.0}; step < 2 * mapped->step_count(); now += dt, ++step) {
    const auto a = fresh.advance(now, dt);
    const auto b = playback.advance(now, dt);
    EXPECT_TRUE(a == b) << "step " << step << " now=" << now.value();
  }
  EXPECT_DOUBLE_EQ(
      playback.advance(Seconds{0.1 + 0.1 + 0.1}, dt).solar_irradiance.value(),
      100.0);
}

TEST(CompiledTrace, PlaybackMatchesLiveSynthesisBitForBit) {
  const Seconds dt{60.0};
  const Seconds duration{6.0 * 3600.0};
  auto live = Environment::indoor_industrial(42);
  auto source = Environment::indoor_industrial(42);
  const auto trace = CompiledTrace::compile(source, dt, duration);
  CompiledEnvironment playback(trace);
  // Exactly core::Simulation's accumulation scheme, which is what campaigns
  // replay through.
  std::size_t steps = 0;
  for (Seconds now{0.0}; now + dt * 0.5 < duration; now += dt) {
    const auto a = live.advance(now, dt);
    const auto b = playback.advance(now, dt);
    EXPECT_TRUE(a == b) << "step " << steps;
    ++steps;
  }
  EXPECT_EQ(trace->step_count(), steps);
  EXPECT_DOUBLE_EQ(trace->dt().value(), dt.value());
  EXPECT_DOUBLE_EQ(trace->duration().value(), duration.value());
  EXPECT_EQ(playback.description(),
            "compiled:" + live.description());
}

TEST(CompiledTrace, ElidesIdenticallyZeroChannels) {
  // The outdoor preset drives only sun + wind; the other six channels are
  // identically zero and must not be stored per step.
  auto source = Environment::outdoor(7);
  const auto trace =
      CompiledTrace::compile(source, Seconds{60.0}, Seconds{86400.0});
  EXPECT_EQ(trace->stored_channels(), 2);
  EXPECT_LT(trace->memory_bytes(),
            3 * trace->step_count() * sizeof(double));
  // Elided channels still read back as exactly +0.0.
  const auto c = trace->at(0);
  EXPECT_EQ(c.illuminance.value(), 0.0);
  EXPECT_FALSE(std::signbit(c.illuminance.value()));
  EXPECT_EQ(c.water_flow.value(), 0.0);
}

TEST(CompiledEnvironment, WrapsPastTheCompiledHorizon) {
  auto source = Environment::outdoor(3);
  const Seconds dt{30.0};
  const Seconds duration{3600.0};
  const auto trace = CompiledTrace::compile(source, dt, duration);
  CompiledEnvironment playback(trace);
  const auto n = trace->step_count();
  // Keep accumulating past the horizon: slot k wraps to k mod n.
  Seconds now{0.0};
  for (std::size_t k = 0; k < 2 * n + 5; ++k, now += dt) {
    const auto c = playback.advance(now, dt);
    EXPECT_TRUE(c == trace->at(k % n)) << k;
  }
}

TEST(CompiledEnvironment, RejectsMismatchedDt) {
  auto source = Environment::outdoor(5);
  const auto trace =
      CompiledTrace::compile(source, Seconds{60.0}, Seconds{3600.0});
  CompiledEnvironment playback(trace);
  EXPECT_THROW(playback.advance(Seconds{0.0}, Seconds{30.0}),
               msehsim::SpecError);
}

TEST(CompiledTrace, RejectsBadSpec) {
  auto source = Environment::outdoor(1);
  EXPECT_THROW(CompiledTrace::compile(source, Seconds{0.0}, Seconds{100.0}),
               msehsim::SpecError);
  EXPECT_THROW(CompiledTrace::compile(source, Seconds{1.0}, Seconds{0.0}),
               msehsim::SpecError);
  EXPECT_THROW(CompiledEnvironment{nullptr}, msehsim::SpecError);
}

// --- Lazy channel columns against the eight-column reference -------------

/// A test double whose channels exercise every edge of column allocation:
/// one always +0.0, one only -0.0, one that starts mid-trace, one non-zero
/// only at the last step, one NaN at step 0, and one that is live from the
/// first step and later falls back to zero.
class EdgeChannels final : public EnvironmentModel {
 public:
  explicit EdgeChannels(std::size_t steps) : steps_(steps) {}
  AmbientConditions advance(Seconds, Seconds) override {
    const std::size_t i = step_++;
    AmbientConditions c;
    c.solar_irradiance = WattsPerSquareMeter{0.0};
    c.illuminance = Lux{-0.0};
    c.wind_speed = MetersPerSecond{i >= steps_ / 2 ? 0.25 * double(i) : 0.0};
    c.thermal_gradient = Kelvin{i + 1 == steps_ ? 3.5 : 0.0};
    c.vibration_rms =
        MetersPerSecondSquared{i == 0 ? std::nan("") : 0.0};
    c.vibration_freq = Hertz{i < 3 ? 120.0 : 0.0};
    c.rf_power_density = WattsPerSquareMeter{0.0};
    c.water_flow = MetersPerSecond{0.0};
    return c;
  }
  [[nodiscard]] std::string description() const override {
    return "edge-channels";
  }

 private:
  std::size_t steps_;
  std::size_t step_{0};
};

std::array<double, CompiledTrace::kChannelCount> channel_values(
    const AmbientConditions& c) {
  return {c.solar_irradiance.value(), c.illuminance.value(),
          c.wind_speed.value(),       c.thermal_gradient.value(),
          c.vibration_rms.value(),    c.vibration_freq.value(),
          c.rf_power_density.value(), c.water_flow.value()};
}

/// Compiles two identically seeded sources, one through CompiledTrace and
/// one through the reference, and compares everything a reader can see:
/// every slot's bits, each channel's presence and bytes, the stored channel
/// count, the held bytes, and the size of the trace-cache entry it writes.
void expect_matches_reference(EnvironmentModel& live, EnvironmentModel& ref,
                              Seconds dt, Seconds duration,
                              const std::string& tag) {
  const auto trace = CompiledTrace::compile(live, dt, duration);
  const testing::ReferenceTrace expected(ref, dt, duration);
  ASSERT_EQ(trace->step_count(), expected.steps_) << tag;
  for (std::size_t i = 0; i < expected.steps_; ++i) {
    const auto got = channel_values(trace->at(i));
    for (std::size_t ch = 0; ch < got.size(); ++ch)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[ch]),
                std::bit_cast<std::uint64_t>(expected.slot(ch, i)))
          << tag << " step " << i << " channel " << ch;
  }
  for (int ch = 0; ch < CompiledTrace::kChannelCount; ++ch) {
    const double* got = trace->channel(ch);
    const double* want = expected.view_[static_cast<std::size_t>(ch)];
    ASSERT_EQ(got == nullptr, want == nullptr) << tag << " channel " << ch;
    if (got != nullptr) {
      EXPECT_EQ(std::memcmp(got, want, expected.steps_ * sizeof(double)), 0)
          << tag << " channel " << ch;
    }
  }
  EXPECT_EQ(trace->stored_channels(), expected.stored_channels()) << tag;
  EXPECT_EQ(trace->memory_bytes(), expected.memory_bytes()) << tag;

  // The entry is a 64-byte header, the description padded to 8 bytes, then
  // one step_count()-double column per stored channel.
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("msehsim_env_lazy_" + tag);
  std::filesystem::remove_all(dir);
  TraceCache cache(dir.string());
  const TraceCacheKey key{tag, 1, dt, duration};
  cache.store(key, *trace);
  const std::size_t header = (64 + trace->description().size() + 7) / 8 * 8;
  EXPECT_EQ(std::filesystem::file_size(cache.entry_path(key)),
            header + static_cast<std::size_t>(expected.stored_channels()) *
                         expected.steps_ * sizeof(double))
      << tag;
  std::filesystem::remove_all(dir);
}

TEST(CompiledTrace, LazyColumnsMatchTheReferenceOnEdgeChannels) {
  for (const double dt : {5.0, 17.5}) {
    constexpr std::size_t kSteps = 97;
    EdgeChannels live(kSteps);
    EdgeChannels ref(kSteps);
    expect_matches_reference(live, ref, Seconds{dt},
                             Seconds{dt * static_cast<double>(kSteps)},
                             "edge_" + std::to_string(int(dt * 10)));
  }
  // Which columns the double stores: -0.0, mid-trace, last-step, NaN at
  // step 0 and the early one; never the always-+0.0 ones.
  EdgeChannels live(10);
  const auto trace = CompiledTrace::compile(live, Seconds{5.0}, Seconds{50.0});
  EXPECT_EQ(trace->stored_channels(), 5);
  EXPECT_EQ(trace->channel(0), nullptr);
  EXPECT_TRUE(std::signbit(trace->at(4).illuminance.value()));
  EXPECT_EQ(trace->at(4).wind_speed.value(), 0.0);
  EXPECT_EQ(trace->at(5).wind_speed.value(), 1.25);
  EXPECT_EQ(trace->at(8).thermal_gradient.value(), 0.0);
  EXPECT_EQ(trace->at(9).thermal_gradient.value(), 3.5);
  EXPECT_TRUE(std::isnan(trace->at(0).vibration_rms.value()));
  EXPECT_EQ(trace->at(1).vibration_rms.value(), 0.0);
}

TEST(CompiledTrace, LazyColumnsMatchTheReferenceOnEveryPreset) {
  using Preset = Environment (*)(std::uint64_t);
  const std::pair<const char*, Preset> presets[] = {
      {"outdoor", &Environment::outdoor},
      {"indoor_industrial", &Environment::indoor_industrial},
      {"agricultural", &Environment::agricultural},
      {"office", &Environment::office}};
  for (const auto& [name, make] : presets)
    for (const double dt : {5.0, 17.5}) {
      auto live = make(11);
      auto ref = make(11);
      expect_matches_reference(live, ref, Seconds{dt}, Seconds{kDay},
                               std::string(name) + "_" +
                                   std::to_string(int(dt * 10)));
    }
}

}  // namespace
}  // namespace msehsim::env
