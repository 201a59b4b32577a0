// Harvester (transducer) interface.
//
// Every harvester exposes a DC-side I-V curve — current available at a given
// terminal voltage under the present ambient conditions (any internal
// AC rectification is folded into the curve). Input power conditioning
// (src/power) picks the operating point on this curve: an MPPT controller
// tracks the knee, a fixed-point circuit sits where it was told to
// (the System A vs System B contrast in Sec. II.1 of the survey).
//
// set_conditions() is a non-virtual template method over
// do_set_conditions(): each transducer latches the channels it reads, with
// a NaN reading taken as +0.0 ("channel absent", env::sanitized).
// maximum_power_point() solves on every call. A Harvester is NOT
// thread-safe; concurrent simulations must each own their harvesters (see
// campaign::Campaign, which builds one platform per job).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/units.hpp"
#include "env/conditions.hpp"
#include "obs/trace.hpp"

namespace msehsim::harvest {

/// Energy source types appearing in Table I of the survey.
enum class HarvesterKind {
  kPhotovoltaic,   ///< "Light"
  kWind,           ///< "Wind"
  kThermoelectric, ///< "Thermal"
  kPiezo,          ///< "Vibration" / "Piezo/Mech"
  kInductive,      ///< electromagnetic vibration (EH-Link)
  kRf,             ///< "Radio"
  kWaterFlow,      ///< "Water Flow" (MPWiNode)
  kAcDc,           ///< "General AC/DC > 5V" (EH-Link)
};

[[nodiscard]] std::string_view to_string(HarvesterKind kind);

/// A point on an I-V curve.
struct OperatingPoint {
  Volts v{0.0};
  Amps i{0.0};
  Watts p{0.0};
};

/// Thevenin-equivalent DC source: the workhorse electrical abstraction for
/// rectified transducers. Maximum power Voc^2/(4R) is reached at Voc/2.
struct TheveninSource {
  Volts voc{0.0};
  Ohms r{1.0};

  [[nodiscard]] Amps current_at(Volts v) const {
    if (v >= voc || r.value() <= 0.0) return Amps{0.0};
    return (voc - v) / r;
  }
  [[nodiscard]] Watts max_power() const {
    return Watts{voc.value() * voc.value() / (4.0 * r.value())};
  }
};

class Harvester {
 public:
  virtual ~Harvester() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual HarvesterKind kind() const = 0;

  /// Latches the ambient conditions for the current timestep. Non-virtual:
  /// defined inline so that, called through a pointer to a final subclass —
  /// as the batched lane kernel's typed chain step does — the
  /// do_set_conditions dispatch devirtualizes.
  void set_conditions(const env::AmbientConditions& c) { do_set_conditions(c); }

  /// DC current the harvester sources into terminal voltage @p v under the
  /// latched conditions. Non-negative (input conditioning always includes
  /// reverse-blocking, Sec. II.1); zero at or above open-circuit voltage.
  [[nodiscard]] virtual Amps current_at(Volts v) const = 0;

  /// Open-circuit voltage under the latched conditions.
  [[nodiscard]] virtual Volts open_circuit_voltage() const = 0;

  /// Power delivered into terminal voltage @p v.
  [[nodiscard]] Watts power_at(Volts v) const { return v * current_at(v); }

  /// True maximum power point under the latched conditions (numeric oracle;
  /// MPPT controllers in src/power approximate this online), solved on every
  /// call.
  ///
  /// Defined inline: through a final-subclass pointer the compute_mpp solve
  /// becomes a direct (and typically inlined) call.
  [[nodiscard]] OperatingPoint maximum_power_point() const {
    OBS_SPAN_SAMPLED("harvest.mpp_solve", "harvest");
    ++mpp_recomputes_;
    return compute_mpp();
  }

  /// Exact Thevenin equivalent of the current curve under the latched
  /// conditions, when the curve is exactly linear (TEG, vibration, RF,
  /// AC/DC, an uncapped turbine, and their fault wrappers). nullopt means
  /// "not representable" (PV diode knee, a power-capped turbine). Composite
  /// harvesters use this to solve their own MPP in closed form region by
  /// region instead of searching the summed curve.
  [[nodiscard]] virtual std::optional<TheveninSource> thevenin_equivalent()
      const {
    return std::nullopt;
  }

  /// Maximum of (u - shift) * I(u) over the source voltage u — the operating
  /// point a diode-OR combiner would pick were this source alone conducting
  /// behind a diode of forward drop @p shift. Reported at the *combiner*
  /// terminal: v = u - shift, i = I(u), p = v * i. The default runs the
  /// golden-section fallback; transducers with a closed-form knee override
  /// it (PvPanel: shifted log-domain Newton). shift = 0 reduces to the
  /// plain MPP.
  [[nodiscard]] virtual OperatingPoint shifted_mpp(Volts shift) const;

  /// Calls of maximum_power_point(), each a solve. (The published
  /// mpp_cache_hits counter beside it is always 0: there is no MPP cache.)
  [[nodiscard]] std::uint64_t mpp_recomputes() const { return mpp_recomputes_; }

 protected:
  /// Subclass hook: latch whatever internal curve state @p c implies. Each
  /// transducer reads its own channels through env::sanitized.
  virtual void do_set_conditions(const env::AmbientConditions& c) = 0;

  /// Computes the MPP from scratch. The default runs a golden-section search
  /// over power_at() on [0, Voc]; concrete transducers override with exact
  /// closed-form or Newton solutions on their own curve (same extremum, no
  /// 80-iteration search on the hot path).
  [[nodiscard]] virtual OperatingPoint compute_mpp() const;

 private:
  mutable std::uint64_t mpp_recomputes_{0};
};

/// Exact MPP of a plain Thevenin curve: V* = Voc/2. The operating current is
/// read back through the harvester's public curve so clamps and caps stay
/// authoritative. Inline next to the class so a final subclass's compute_mpp
/// collapses to straight-line math.
[[nodiscard]] inline OperatingPoint thevenin_mpp(const Harvester& h,
                                                 Volts voc) {
  if (voc.value() <= 0.0) return OperatingPoint{};
  OperatingPoint mpp;
  mpp.v = voc * 0.5;
  mpp.i = h.current_at(mpp.v);
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

}  // namespace msehsim::harvest
