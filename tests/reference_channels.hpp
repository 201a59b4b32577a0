// Reference for the ambient step memos, used by test_env: verbatim copies of
// SolarChannel, WindChannel and ThermalChannel as they were before their
// step-invariant terms (cloud-leave probabilities, clear-sky day terms, AR(1)
// coefficients, thermal relaxation factor) were memoized. Every formula is
// evaluated on every step here; the memoized channels must match bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "core/random.hpp"
#include "core/units.hpp"
#include "env/channels.hpp"

namespace msehsim::env::testing {

inline constexpr double kRefDeg2Rad = std::numbers::pi / 180.0;

class ReferenceSolar {
 public:
  ReferenceSolar(SolarChannel::Params params, std::uint64_t seed)
      : params_(params), rng_(seed, stream_key("solar")) {}

  [[nodiscard]] WattsPerSquareMeter clear_sky(Seconds now) const {
    const int doy = params_.day_of_year + day_index(now);
    const double declination = -23.44 * kRefDeg2Rad *
        std::cos(2.0 * std::numbers::pi * (doy + 10) / 365.0);
    const double hour_angle = (hour_of_day(now) - 12.0) * 15.0 * kRefDeg2Rad;
    const double lat = params_.latitude_deg * kRefDeg2Rad;
    const double sin_elev = std::sin(lat) * std::sin(declination) +
                            std::cos(lat) * std::cos(declination) * std::cos(hour_angle);
    if (sin_elev <= 0.0) return WattsPerSquareMeter{0.0};
    const double air_mass = 1.0 / std::max(sin_elev, 0.05);
    const double atten = std::pow(0.7, std::pow(air_mass, 0.678));
    return params_.clear_sky_peak * (sin_elev * atten / std::pow(0.7, 1.0));
  }

  WattsPerSquareMeter advance(Seconds now, Seconds dt) {
    const double leave_rate =
        cloudy_ ? 1.0 / params_.mean_cloudy_spell.value()
                : 1.0 / params_.mean_clear_spell.value();
    if (rng_.bernoulli(-std::expm1(-leave_rate * dt.value()))) cloudy_ = !cloudy_;
    const WattsPerSquareMeter base = clear_sky(now);
    return cloudy_ ? base * params_.cloud_attenuation : base;
  }

  [[nodiscard]] bool cloudy() const { return cloudy_; }

 private:
  SolarChannel::Params params_;
  Pcg32 rng_;
  bool cloudy_{false};
};

class ReferenceWind {
 public:
  ReferenceWind(WindChannel::Params params, std::uint64_t seed)
      : params_(params), rng_(seed, stream_key("wind")) {
    z_ = rng_.normal();
  }

  MetersPerSecond advance(Seconds now, Seconds dt) {
    const double rho = std::exp(-dt.value() / params_.correlation_time.value());
    z_ = rho * z_ + std::sqrt(std::max(0.0, 1.0 - rho * rho)) * rng_.normal();
    const double phi = 0.5 * (1.0 + std::erf(z_ / std::numbers::sqrt2));
    const double u = std::clamp(phi, 1e-9, 1.0 - 1e-9);
    double speed = params_.weibull_scale.value() *
                   std::pow(-std::log(1.0 - u), 1.0 / params_.weibull_shape);
    const double h = hour_of_day(now);
    const double diurnal =
        1.0 + params_.diurnal_amplitude *
                  std::cos(2.0 * std::numbers::pi * (h - 15.0) / 24.0);
    speed *= diurnal;
    return MetersPerSecond{std::max(0.0, speed)};
  }

 private:
  WindChannel::Params params_;
  Pcg32 rng_;
  double z_{0.0};
};

class ReferenceThermal {
 public:
  ReferenceThermal(ThermalChannel::Params params, std::uint64_t seed)
      : params_(params), rng_(seed, stream_key("thermal")) {
    gradient_ = params_.gradient_off;
    state_time_left_ = Seconds{rng_.exponential(params_.mean_off_time.value())};
  }

  Kelvin advance(Seconds now, Seconds dt) {
    (void)now;
    state_time_left_ -= dt;
    if (state_time_left_.value() <= 0.0) {
      on_ = !on_;
      const double mean = on_ ? params_.mean_on_time.value() : params_.mean_off_time.value();
      state_time_left_ = Seconds{rng_.exponential(mean)};
    }
    const Kelvin target = on_ ? params_.gradient_on : params_.gradient_off;
    const double alpha = 1.0 - std::exp(-dt.value() / params_.thermal_time_constant.value());
    gradient_ += (target - gradient_) * alpha;
    return gradient_;
  }

 private:
  ThermalChannel::Params params_;
  Pcg32 rng_;
  bool on_{false};
  Seconds state_time_left_{0.0};
  Kelvin gradient_{0.5};
};

}  // namespace msehsim::env::testing
