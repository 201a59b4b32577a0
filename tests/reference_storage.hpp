// References for the step-path memos, shared by test_storage and test_node:
// verbatim copies of Battery::voltage, max_discharge_power, stored_energy
// and capacity, and of SensorNode::average_power, as they were before those
// results were cached, rewritten against the public accessors. Every cached
// read must match them bit for bit.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "node/sensor_node.hpp"
#include "storage/battery.hpp"

namespace msehsim::testing {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The out-of-line interp_clamped the OCV lookup called.
inline double reference_interp_clamped(const double* xs, const double* ys,
                                       int n, double x) {
  if (n <= 0) return 0.0;
  if (x <= xs[0]) return ys[0];
  if (x >= xs[n - 1]) return ys[n - 1];
  for (int i = 1; i < n; ++i) {
    if (x <= xs[i]) {
      const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
      return ys[i - 1] + t * (ys[i] - ys[i - 1]);
    }
  }
  return ys[n - 1];
}

/// Battery::effective_full_charge: rated charge derated by aging and faults.
inline Coulombs reference_effective_full_charge(const storage::Battery& b) {
  return Coulombs{to_coulombs(b.params().rated_capacity).value() *
                  b.state_of_health()};
}

inline double reference_soc_now(const storage::Battery& b) {
  return b.charge_state() / reference_effective_full_charge(b);
}

inline Volts reference_ocv_at(const storage::Battery& b, double soc) {
  static constexpr std::array<double, 5> kSocBreaks{0.0, 0.25, 0.5, 0.75, 1.0};
  return Volts{reference_interp_clamped(kSocBreaks.data(),
                                        b.params().ocv_curve.data(),
                                        static_cast<int>(kSocBreaks.size()),
                                        std::clamp(soc, 0.0, 1.0))};
}

inline Volts reference_voltage(const storage::Battery& b) {
  return reference_ocv_at(b, reference_soc_now(b));
}

inline Joules reference_stored_energy(const storage::Battery& b) {
  // Integrate OCV over the remaining charge (trapezoid over the PWL curve).
  const double soc = reference_soc_now(b);
  const double steps = 64;
  double energy = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double s0 = soc * i / steps;
    const double s1 = soc * (i + 1) / steps;
    const double v_mid = reference_ocv_at(b, 0.5 * (s0 + s1)).value();
    energy += v_mid * (s1 - s0) * reference_effective_full_charge(b).value();
  }
  return Joules{energy};
}

inline Joules reference_capacity(const storage::Battery& b) {
  double energy = 0.0;
  const double steps = 64;
  for (int i = 0; i < steps; ++i) {
    const double s_mid = (i + 0.5) / steps;
    energy += reference_ocv_at(b, s_mid).value() / steps *
              reference_effective_full_charge(b).value();
  }
  return Joules{energy};
}

inline Watts reference_max_discharge_power(const storage::Battery& b) {
  // Lesser of the matched-load bound and the current-limit bound.
  const double ocv = reference_voltage(b).value();
  const double r = b.params().internal_resistance.value();
  const double i_lim = b.params().max_discharge_current.value();
  const double p_matched = ocv * ocv / (4.0 * r);
  const double p_current = (ocv - i_lim * r) * i_lim;
  if (b.charge_state().value() <= 0.0) return Watts{0.0};
  return Watts{std::max(0.0, std::min(p_matched, p_current))};
}

/// SensorNode::cycle_energy and average_power.
inline Joules reference_cycle_energy(const node::SensorNode& n,
                                     Volts rail_voltage) {
  const auto& work = n.workload();
  const auto& radio = n.radio();
  const Seconds tx_time{work.packet_bytes * 8.0 / radio.bitrate_bps};
  const Seconds rx_time{work.rx_ack_bytes * 8.0 / radio.bitrate_bps};
  const Joules processing =
      rail_voltage * n.mcu().active_current * work.processing_time;
  const Joules tx =
      rail_voltage * radio.tx_current * n.radio_pa_factor() * tx_time;
  const Joules rx = rail_voltage * radio.rx_current * rx_time;
  return processing + tx + rx + work.sensor_energy * n.flash_wear_factor();
}

inline Watts reference_average_power(const node::SensorNode& n,
                                     Volts rail_voltage) {
  const Watts base =
      rail_voltage * (n.mcu().sleep_current + n.radio().wake_up_rx_current);
  return base + reference_cycle_energy(n, rail_voltage) / n.workload().task_period;
}

}  // namespace msehsim::testing
