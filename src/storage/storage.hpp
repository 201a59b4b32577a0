// Energy storage device interface.
//
// Storage is the buffer between intermittent harvesters and bursty loads
// (survey Sec. II.1). The interface is an energy-packet contract: the
// platform offers charge power or requests discharge power for one timestep
// and the device reports how much it actually accepted/delivered, with
// conversion and internal-resistance losses applied inside the model.
#pragma once

#include <cmath>
#include <limits>
#include <string_view>

#include "core/units.hpp"

namespace msehsim::storage {

/// One-entry memo for std::exp on a per-call-site exponent. Storage models
/// apply RC decay factors exp(-dt / tau) every simulation step, and with a
/// fixed dt and voltage-independent capacitance the exponent is the same
/// double step after step — but libm's exp dominates step cost. The memo
/// returns the previously computed value whenever the exponent is
/// bit-identical to the last call's, so results are byte-for-byte the same
/// as calling exp every time; any change (a fault adjusting the leakage
/// multiplier, a capacity fade, a different dt) recomputes.
struct ExpMemo {
  double exponent{std::numeric_limits<double>::quiet_NaN()};
  double value{1.0};
  double operator()(double x) {
    if (x != exponent) {  // NaN key: first call always recomputes
      exponent = x;
      value = std::exp(x);
    }
    return value;
  }
};

/// Storage technologies appearing in Table I of the survey.
enum class StorageKind {
  kSupercapacitor,
  kLiIon,            ///< Li-ion / Li-polymer rechargeable
  kNiMH,             ///< NiMH rechargeable (single cell or AA pack)
  kThinFilm,         ///< EnerChip / MAX17710-class thin-film battery
  kPrimaryLithium,   ///< non-rechargeable lithium cell
  kFuelCell,         ///< hydrogen fuel cell backup (System A)
  kLithiumIonCapacitor,
};

[[nodiscard]] std::string_view to_string(StorageKind kind);

class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual StorageKind kind() const = 0;
  [[nodiscard]] virtual bool rechargeable() const = 0;

  /// Present open-circuit terminal voltage.
  [[nodiscard]] virtual Volts voltage() const = 0;

  /// Energy currently stored (relative to empty).
  [[nodiscard]] virtual Joules stored_energy() const = 0;

  /// Energy at full charge.
  [[nodiscard]] virtual Joules capacity() const = 0;

  /// State of charge in [0, 1].
  [[nodiscard]] double soc() const {
    const double cap = capacity().value();
    return cap > 0.0 ? stored_energy().value() / cap : 0.0;
  }

  /// Offers @p power for @p dt; returns the electrical power actually drawn
  /// from the bus (0 for full or non-rechargeable devices).
  virtual Watts charge(Watts power, Seconds dt) = 0;

  /// Requests @p power for @p dt; returns the power actually delivered
  /// (limited by state of charge and maximum current).
  virtual Watts discharge(Watts power, Seconds dt) = 0;

  /// Applies self-discharge / leakage over @p dt. Called once per step.
  virtual void apply_leakage(Seconds dt) = 0;

  /// Highest sustained discharge power at the present state of charge.
  /// Contract: the result is >= 0 and never NaN. Platform::step sums these
  /// terms and stops once the sum covers the demand, which is exact only
  /// because a non-negative term can never lower the sum.
  [[nodiscard]] virtual Watts max_discharge_power() const = 0;

  // ---- Fault injection (src/fault) ---------------------------------------
  // Runtime degradation is modelled behaviour (core/error.hpp); devices
  // without an applicable mechanism ignore the hook.

  /// Permanently removes @p fraction in [0, 1) of the device's present
  /// capacity — accelerated aging, a shorted cell in a pack, electrolyte
  /// dry-out. Stored charge above the new capacity is lost with it.
  virtual void inject_capacity_fade(double /*fraction*/) {}

  /// Scales self-discharge until changed again (1.0 = nominal). A spike
  /// (> 1) models dendrites or seal failure; it stays until healed.
  virtual void set_leakage_multiplier(double /*multiplier*/) {}

  /// Present leakage scaling (1.0 when no fault is active).
  [[nodiscard]] virtual double leakage_multiplier() const { return 1.0; }
};

}  // namespace msehsim::storage
