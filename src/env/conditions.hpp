// Ambient energy conditions seen by a deployment site at one instant.
//
// This is the interface between the environment generators (src/env) and the
// transducer models (src/harvest): each harvester reads the one channel it
// transduces. A channel that is absent at a site is simply zero.
#pragma once

#include <cmath>

#include "core/units.hpp"

namespace msehsim::env {

struct AmbientConditions {
  /// Broadband solar irradiance on the harvester plane (outdoor PV).
  WattsPerSquareMeter solar_irradiance{0.0};
  /// Illuminance (indoor PV under artificial light).
  Lux illuminance{0.0};
  /// Free-stream air speed at the turbine (outdoor wind or HVAC flow).
  MetersPerSecond wind_speed{0.0};
  /// Temperature difference across a thermoelectric generator.
  Kelvin thermal_gradient{0.0};
  /// RMS base acceleration of the dominant vibration tone.
  MetersPerSecondSquared vibration_rms{0.0};
  /// Frequency of the dominant vibration tone.
  Hertz vibration_freq{0.0};
  /// Incident RF power density at the rectenna.
  WattsPerSquareMeter rf_power_density{0.0};
  /// Water flow speed at a micro hydro turbine (MPWiNode scenario).
  MetersPerSecond water_flow{0.0};

  /// Field-wise exact equality.
  friend bool operator==(const AmbientConditions&,
                         const AmbientConditions&) = default;
};

/// @p q, or +0.0 when it is NaN. A NaN ambient reading is a sensor artifact,
/// not a physical level, and would poison a transducer's curve; zero is the
/// "channel absent" convention everywhere else in env. Every other value,
/// -0.0 included, passes through unchanged. Each transducer applies this to
/// the channels it reads when it latches conditions.
template <typename Tag>
[[nodiscard]] Quantity<Tag> sanitized(Quantity<Tag> q) {
  return std::isnan(q.value()) ? Quantity<Tag>{0.0} : q;
}

/// @p c with every channel multiplied by @p gain — a uniformly miscalibrated
/// ambient-sensing front end (fault::FaultKind::kSensorDrift). Used to feed
/// operating-point trackers a skewed view of the environment while the
/// physics keeps seeing the true conditions. gain == 1 returns @p c exactly
/// (bit-identical, so the unfaulted path is unchanged).
[[nodiscard]] inline AmbientConditions scaled(AmbientConditions c, double gain) {
  if (gain == 1.0) return c;
  c.solar_irradiance *= gain;
  c.illuminance *= gain;
  c.wind_speed *= gain;
  c.thermal_gradient *= gain;
  c.vibration_rms *= gain;
  c.vibration_freq *= gain;
  c.rf_power_density *= gain;
  c.water_flow *= gain;
  return c;
}

}  // namespace msehsim::env
