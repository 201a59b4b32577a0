// Reference for the output-stage inverse, shared by test_converter and
// test_chain: a verbatim copy of Converter::required_input as it was before
// the per-topology specialisation, iterating the public transfer(). The
// specialised inverse and the OutputChain memo must match it bit for bit.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "power/converter.hpp"

namespace msehsim::power::testing {

inline Watts reference_required_input(const Converter& c, Watts output,
                                      Volts vin, Volts vout) {
  if (!c.can_convert(vin, vout)) return Watts{0.0};
  const Watts floor = c.quiescent_power(vin);
  if (output.value() <= 0.0) return floor;
  // transfer() is monotone increasing in input; invert by fixed point.
  double input = output.value() / c.params().peak_efficiency + floor.value();
  for (int i = 0; i < 24; ++i) {
    const double got = c.transfer(Watts{input}, vin, vout).value();
    const double error = output.value() - got;
    if (std::fabs(error) < 1e-12) break;
    input += error / std::max(0.1, c.params().peak_efficiency);
    input = std::max(input, 0.0);
  }
  return Watts{input};
}

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every catalog preset plus one converter per topology, including a lossless
/// switcher (peak efficiency exactly 1.0, the division-free path), one below
/// the 0.1 gain clamp, and a diode and LDO with unusual parameters.
inline std::vector<Converter> sweep_converters() {
  std::vector<Converter> out = {
      Converter::smart_buck_boost("smart_buck_boost"),
      Converter::nano_ldo("nano_ldo"),
      Converter::schottky_diode("schottky_diode"),
      Converter::boost_frontend("boost_frontend"),
  };
  for (const Topology t : {Topology::kDiode, Topology::kLdo, Topology::kBuck,
                           Topology::kBoost, Topology::kBuckBoost}) {
    Converter::Params p;
    p.topology = t;
    out.emplace_back(std::string(to_string(t)), p);
    p.peak_efficiency = 1.0;
    p.conduction_loss_fraction = 0.0;
    out.emplace_back(std::string(to_string(t)) + "-lossless", p);
    p.peak_efficiency = 0.05;
    p.conduction_loss_fraction = 0.5;
    p.quiescent_current = Amps{1e-3};
    p.diode_drop = Volts{0.0};
    p.rated_power = Watts{1e-3};
    out.emplace_back(std::string(to_string(t)) + "-lossy", p);
  }
  return out;
}

/// Voltages across every preset's window edges, with both signed zeros.
inline std::vector<double> sweep_voltages() {
  return {-0.0, 0.0, 0.05, 0.1, 0.5, 0.8, 1.0, 1.8, 2.5, 3.0, 3.3,
          4.2, 5.0, 5.5, 6.0, 20.0, 25.0, 30.0};
}

/// Load powers from nothing to far past rating, with both signed zeros, a
/// negative demand and the non-finite values the fixed point must survive.
inline std::vector<double> sweep_outputs() {
  return {-0.0, 0.0, -1e-3, 1e-12, 1e-9, 1e-6, 3.7e-5, 1e-4, 1e-3, 4.2e-3,
          0.01, 0.05, 0.1, 0.5, 2.0, 1e3,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()};
}

}  // namespace msehsim::power::testing
