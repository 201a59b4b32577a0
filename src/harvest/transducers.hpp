// Concrete transducer models for every harvester type in Table I.
//
// Each model maps one AmbientConditions channel to a DC I-V curve with
// datasheet-level parameters. The defaults are sized for the wireless-
// sensor-node scale the survey targets (mW-class outdoor, sub-mW indoor).
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "harvest/harvester.hpp"

namespace msehsim::harvest {

/// Photovoltaic panel — single-diode model.
///
/// I(V) = Iph - I0 (exp(V / (n Ns Vt)) - 1), with Iph proportional to
/// irradiance. Indoor operation converts illuminance to equivalent
/// irradiance via the configured luminous efficacy.
class PvPanel final : public Harvester {
 public:
  struct Params {
    Volts voc_stc{4.2};           ///< open-circuit voltage at 1000 W/m^2
    Amps isc_stc{0.060};          ///< short-circuit current at 1000 W/m^2
    double diode_ideality{1.6};
    int series_cells{7};
    bool indoor{false};           ///< read illuminance instead of irradiance
    double lux_per_wm2{120.0};    ///< daylight-equivalent conversion
    double indoor_derating{0.6};  ///< indoor cells are less efficient
  };

  PvPanel(std::string name, Params params);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] HarvesterKind kind() const override {
    return HarvesterKind::kPhotovoltaic;
  }
  [[nodiscard]] Amps current_at(Volts v) const override;
  [[nodiscard]] Volts open_circuit_voltage() const override;
  [[nodiscard]] OperatingPoint shifted_mpp(Volts shift) const override;

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override;
  [[nodiscard]] OperatingPoint compute_mpp() const override;

 public:
  [[nodiscard]] const Params& params() const { return params_; }

 private:
  [[nodiscard]] double thermal_voltage() const;

  std::string name_;
  Params params_;
  Amps photo_current_{0.0};
  Amps saturation_current_{0.0};
};

/// Micro wind turbine (Carli et al. [7] class): swept-area power with a
/// fixed power coefficient, cut-in/rated limits, PM generator + rectifier
/// modelled as a speed-proportional Thevenin source capped by the
/// aerodynamically available power.
class WindTurbine final : public Harvester {
 public:
  struct Params {
    double rotor_area_m2{0.010};     ///< ~11 cm diameter micro turbine
    double power_coefficient{0.25};
    MetersPerSecond cut_in{2.0};
    MetersPerSecond rated{10.0};
    Volts voc_per_ms{0.9};           ///< rectified EMF per m/s of wind
    Ohms internal_resistance{15.0};
    double fluid_density{1.225};     ///< air; water turbines override
  };

  WindTurbine(std::string name, Params params);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] HarvesterKind kind() const override { return kind_; }
  [[nodiscard]] Amps current_at(Volts v) const override;
  [[nodiscard]] Volts open_circuit_voltage() const override;
  /// Thevenin only while the aero cap is slack (Voc^2/4R <= available);
  /// a capped turbine's plateau is not a linear curve.
  [[nodiscard]] std::optional<TheveninSource> thevenin_equivalent()
      const override;
  [[nodiscard]] OperatingPoint shifted_mpp(Volts shift) const override;

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override;
  [[nodiscard]] OperatingPoint compute_mpp() const override;

 public:

  /// Aerodynamic power available at the latched speed (upper bound).
  [[nodiscard]] Watts available_power() const { return available_; }

  /// Factory for a micro hydro generator (reads the water_flow channel).
  static WindTurbine water_turbine(std::string name);

 private:
  WindTurbine(std::string name, Params params, HarvesterKind kind);
  void latch_speed(MetersPerSecond speed);

  std::string name_;
  Params params_;
  HarvesterKind kind_{HarvesterKind::kWind};
  TheveninSource source_;
  Watts available_{0.0};
};

/// Thermoelectric generator: Seebeck Thevenin source, Voc = S_total * dT.
class Teg final : public Harvester {
 public:
  struct Params {
    Volts seebeck_per_kelvin{0.05};  ///< module-level Seebeck coefficient
    Ohms internal_resistance{5.0};
  };

  Teg(std::string name, Params params);

  // The conditions -> curve -> MPP sequence runs once per lane per step in
  // trace-driven runs; defined inline so a devirtualized call site pays
  // straight-line math instead of three call hops.
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] HarvesterKind kind() const override {
    return HarvesterKind::kThermoelectric;
  }
  [[nodiscard]] Amps current_at(Volts v) const override {
    if (v.value() < 0.0) return Amps{0.0};
    return source_.current_at(v);
  }
  [[nodiscard]] Volts open_circuit_voltage() const override {
    return source_.voc;
  }
  [[nodiscard]] std::optional<TheveninSource> thevenin_equivalent()
      const override {
    return source_;
  }

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override {
    const double dt = std::max(0.0, env::sanitized(c.thermal_gradient).value());
    source_ =
        TheveninSource{params_.seebeck_per_kelvin * dt, params_.internal_resistance};
  }
  [[nodiscard]] OperatingPoint compute_mpp() const override {
    return thevenin_mpp(*this, source_.voc);
  }

 public:

 private:
  std::string name_;
  Params params_;
  TheveninSource source_;
};

/// Resonant vibration harvester (piezoelectric or electromagnetic).
///
/// Peak electrical power follows the Williams-Yates limit
/// P = m a^2 / (8 zeta omega) at resonance, with a Lorentzian roll-off for
/// detuned excitation; the rectified DC side is a Thevenin source whose
/// maximum power equals that bound.
class VibrationHarvester final : public Harvester {
 public:
  struct Params {
    double proof_mass_kg{0.010};
    double damping_ratio{0.02};
    Hertz resonant_frequency{50.0};
    double bandwidth_fraction{0.05};  ///< half-power bandwidth / f0
    Volts optimal_voltage{3.3};       ///< rectified MPP voltage
    double transduction_efficiency{0.6};
  };

  VibrationHarvester(std::string name, Params params, HarvesterKind kind);

  // Inline hot path, same rationale as Teg: one conditions -> MPP pass per
  // lane per step on vibration traces.
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] HarvesterKind kind() const override { return kind_; }
  [[nodiscard]] Amps current_at(Volts v) const override {
    if (v.value() < 0.0) return Amps{0.0};
    return source_.current_at(v);
  }
  [[nodiscard]] Volts open_circuit_voltage() const override {
    return source_.voc;
  }
  [[nodiscard]] std::optional<TheveninSource> thevenin_equivalent()
      const override {
    return source_;
  }

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override {
    const double a = env::sanitized(c.vibration_rms).value();
    const double f = env::sanitized(c.vibration_freq).value();
    if (a <= 0.0 || f <= 0.0) {
      source_ = TheveninSource{Volts{0.0}, Ohms{1.0}};
      return;
    }
    const double omega =
        2.0 * std::numbers::pi * params_.resonant_frequency.value();
    // Williams-Yates resonant bound, derated by transduction efficiency.
    const double p_res = params_.proof_mass_kg * a * a /
                         (8.0 * params_.damping_ratio * omega) *
                         params_.transduction_efficiency;
    // Lorentzian roll-off when the excitation is detuned from resonance.
    const double half_bw =
        0.5 * params_.bandwidth_fraction * params_.resonant_frequency.value();
    const double detune = (f - params_.resonant_frequency.value()) / half_bw;
    const double p_max = p_res / (1.0 + detune * detune);
    if (p_max <= 0.0) {
      source_ = TheveninSource{Volts{0.0}, Ohms{1.0}};
      return;
    }
    // Thevenin source whose MPP sits at (optimal_voltage, p_max).
    const Volts voc = params_.optimal_voltage * 2.0;
    const Ohms r = Ohms{voc.value() * voc.value() / (4.0 * p_max)};
    source_ = TheveninSource{voc, r};
  }
  [[nodiscard]] OperatingPoint compute_mpp() const override {
    return thevenin_mpp(*this, source_.voc);
  }

 public:

  static VibrationHarvester piezo(std::string name, Params params);
  static VibrationHarvester piezo(std::string name) { return piezo(std::move(name), Params{}); }
  static VibrationHarvester electromagnetic(std::string name, Params params);
  static VibrationHarvester electromagnetic(std::string name) {
    return electromagnetic(std::move(name), Params{});
  }

 private:
  std::string name_;
  Params params_;
  HarvesterKind kind_;
  TheveninSource source_;
};

/// RF rectenna: incident power density x aperture, through a sensitivity
/// threshold and an input-power-dependent RF-DC conversion efficiency.
class RfHarvester final : public Harvester {
 public:
  struct Params {
    double aperture_m2{0.005};       ///< antenna effective aperture
    Watts sensitivity{1e-6};         ///< below this, no rectification
    double peak_efficiency{0.5};
    Watts efficiency_knee{1e-4};     ///< input power where eff. saturates
    Volts optimal_voltage{2.0};
  };

  RfHarvester(std::string name, Params params);

  // Inline hot path, same rationale as Teg.
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] HarvesterKind kind() const override { return HarvesterKind::kRf; }
  [[nodiscard]] Amps current_at(Volts v) const override {
    if (v.value() < 0.0) return Amps{0.0};
    return source_.current_at(v);
  }
  [[nodiscard]] Volts open_circuit_voltage() const override {
    return source_.voc;
  }
  [[nodiscard]] std::optional<TheveninSource> thevenin_equivalent()
      const override {
    return source_;
  }

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override {
    const Watts incident =
        Watts{env::sanitized(c.rf_power_density).value() * params_.aperture_m2};
    if (incident < params_.sensitivity) {
      source_ = TheveninSource{Volts{0.0}, Ohms{1.0}};
      return;
    }
    // Efficiency rises with input power and saturates past the knee
    // (rectifier diodes need forward bias) — standard rectenna behaviour.
    const double x = incident.value() / params_.efficiency_knee.value();
    const double eff = params_.peak_efficiency * (x / (1.0 + x));
    const double p_out = incident.value() * eff;
    const Volts voc = params_.optimal_voltage * 2.0;
    source_ =
        TheveninSource{voc, Ohms{voc.value() * voc.value() / (4.0 * p_out)}};
  }
  [[nodiscard]] OperatingPoint compute_mpp() const override {
    return thevenin_mpp(*this, source_.voc);
  }

 public:

 private:
  std::string name_;
  Params params_;
  TheveninSource source_;
};

/// Generic rectified AC/DC input (> 5 V), as accepted by the Microstrain
/// EH-Link. Availability is keyed to machinery being energized, proxied by
/// the vibration channel exceeding a threshold (documented substitution).
class AcDcSource final : public Harvester {
 public:
  struct Params {
    Volts rectified_voc{8.0};
    Ohms internal_resistance{200.0};
    MetersPerSecondSquared machinery_threshold{0.5};
  };

  AcDcSource(std::string name, Params params);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] HarvesterKind kind() const override { return HarvesterKind::kAcDc; }
  [[nodiscard]] Amps current_at(Volts v) const override;
  [[nodiscard]] Volts open_circuit_voltage() const override;
  [[nodiscard]] std::optional<TheveninSource> thevenin_equivalent()
      const override {
    if (!energized_) return TheveninSource{Volts{0.0}, Ohms{1.0}};
    return TheveninSource{params_.rectified_voc, params_.internal_resistance};
  }

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override;
  [[nodiscard]] OperatingPoint compute_mpp() const override;

 public:

 private:
  std::string name_;
  Params params_;
  bool energized_{false};
};

}  // namespace msehsim::harvest
