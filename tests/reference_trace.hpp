// Reference for CompiledTrace's channel columns, used by test_env: a
// verbatim copy of the constructor as it was when every compile reserved and
// filled all eight channel arrays, then dropped the ones that held only
// bit-exact +0.0. The lazy-column compile, which allocates a channel's array
// only at its first value that is not +0.0, must match it bit for bit.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/error.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"

namespace msehsim::env::testing {

/// True only for bit-exact +0.0: eliding -0.0 would swap the sign of a
/// stored zero and could leak into a "-0"-vs-"0" byte difference in a
/// round-trip-exact text report downstream.
inline bool all_positive_zero(const std::vector<double>& v) {
  for (const double x : v)
    if (x != 0.0 || std::signbit(x)) return false;
  return true;
}

struct ReferenceTrace {
  static constexpr std::size_t kChannelCount = CompiledTrace::kChannelCount;

  ReferenceTrace(EnvironmentModel& source, Seconds dt, Seconds duration) {
    require_spec(dt.value() > 0.0, "CompiledTrace: dt must be > 0");
    require_spec(duration.value() > 0.0, "CompiledTrace: duration must be > 0");
    const auto reserve =
        static_cast<std::size_t>(duration.value() / dt.value()) + 1;
    for (auto& v : owned_) v.reserve(reserve);
    // Exactly core::Simulation's stepping scheme (run_platform starts at
    // now = 0): repeated accumulation, half-step end tolerance. Any deviation
    // here would desynchronize playback from a live run.
    for (Seconds now{0.0}; now + dt * 0.5 < duration; now += dt) {
      const AmbientConditions c = source.advance(now, dt);
      owned_[0].push_back(c.solar_irradiance.value());
      owned_[1].push_back(c.illuminance.value());
      owned_[2].push_back(c.wind_speed.value());
      owned_[3].push_back(c.thermal_gradient.value());
      owned_[4].push_back(c.vibration_rms.value());
      owned_[5].push_back(c.vibration_freq.value());
      owned_[6].push_back(c.rf_power_density.value());
      owned_[7].push_back(c.water_flow.value());
    }
    steps_ = owned_[0].size();
    require_spec(steps_ > 0, "CompiledTrace: zero-step timeline");
    for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
      if (all_positive_zero(owned_[ch])) {
        owned_[ch].clear();
        owned_[ch].shrink_to_fit();
        view_[ch] = nullptr;
      } else {
        view_[ch] = owned_[ch].data();
      }
    }
  }

  [[nodiscard]] double slot(std::size_t ch, std::size_t i) const {
    const double* v = view_[ch];
    return v == nullptr ? 0.0 : v[i];
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = 0;
    for (const auto& v : owned_) bytes += v.capacity() * sizeof(double);
    return bytes;
  }

  [[nodiscard]] int stored_channels() const {
    int n = 0;
    for (const auto* v : view_)
      if (v != nullptr) ++n;
    return n;
  }

  std::size_t steps_{0};
  std::array<std::vector<double>, kChannelCount> owned_{};
  std::array<const double*, kChannelCount> view_{};
};

}  // namespace msehsim::env::testing
