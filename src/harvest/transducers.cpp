#include "harvest/transducers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "core/error.hpp"

namespace msehsim::harvest {

// Linear-transducer MPPs use the shared harvest::thevenin_mpp (inline in
// harvester.hpp, next to the hot overrides of Teg / VibrationHarvester /
// RfHarvester).

// ---------------------------------------------------------------------------
// PvPanel
// ---------------------------------------------------------------------------

namespace {

// Bounded memo of a pure function of K doubles, keyed on their bit patterns
// (so +0.0 and -0.0 are different keys, and a hit returns exactly what a
// fresh evaluation would). N entries, replaced round-robin. The one instance
// (PvPanel::compute_mpp) is thread_local: panels with identical curves on
// one thread share solves (a platform's twin arrays, the same panel on
// several platforms stepping the same trace sample), and no state crosses
// threads.
template <std::size_t N, std::size_t K, typename Value>
class BitKeyMemo {
 public:
  using Key = std::array<std::uint64_t, K>;

  [[nodiscard]] const Value* find(const Key& key) const {
    for (std::size_t i = 0; i < used_; ++i)
      if (keys_[i] == key) return &values_[i];
    return nullptr;
  }

  void insert(const Key& key, const Value& value) {
    keys_[next_] = key;
    values_[next_] = value;
    next_ = (next_ + 1) % N;
    used_ = std::max(used_, next_ == 0 ? N : next_);
  }

 private:
  std::array<Key, N> keys_{};
  std::array<Value, N> values_{};
  std::size_t next_{0};
  std::size_t used_{0};
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

PvPanel::PvPanel(std::string name, Params params)
    : name_(std::move(name)), params_(params) {
  require_spec(params_.voc_stc.value() > 0.0, "PV Voc must be > 0");
  require_spec(params_.isc_stc.value() > 0.0, "PV Isc must be > 0");
  require_spec(params_.diode_ideality >= 1.0 && params_.diode_ideality <= 2.5,
               "PV diode ideality out of physical range [1, 2.5]");
  require_spec(params_.series_cells >= 1, "PV needs at least one cell");
  require_spec(params_.lux_per_wm2 > 0.0, "PV lux conversion must be > 0");
  // Dark saturation current pinned so that I(Voc_stc) = 0 at STC.
  const double vt_total = thermal_voltage();
  saturation_current_ =
      Amps{params_.isc_stc.value() / std::expm1(params_.voc_stc.value() / vt_total)};
}

double PvPanel::thermal_voltage() const {
  constexpr double kVtCell = 0.02585;  // kT/q at 300 K
  return params_.diode_ideality * kVtCell * params_.series_cells;
}

void PvPanel::do_set_conditions(const env::AmbientConditions& c) {
  const double g = params_.indoor ? env::sanitized(c.illuminance).value() /
                                        params_.lux_per_wm2 *
                                        params_.indoor_derating
                                  : env::sanitized(c.solar_irradiance).value();
  photo_current_ = Amps{params_.isc_stc.value() * std::max(0.0, g) / 1000.0};
}

Amps PvPanel::current_at(Volts v) const {
  if (v.value() < 0.0) return Amps{0.0};
  const double diode =
      saturation_current_.value() * std::expm1(v.value() / thermal_voltage());
  return Amps{std::max(0.0, photo_current_.value() - diode)};
}

Volts PvPanel::open_circuit_voltage() const {
  if (photo_current_.value() <= 0.0) return Volts{0.0};
  return Volts{thermal_voltage() *
               std::log1p(photo_current_.value() / saturation_current_.value())};
}


OperatingPoint PvPanel::compute_mpp() const {
  if (photo_current_.value() <= 0.0) return OperatingPoint{};
  // dP/dV = 0 on the single-diode curve gives e^x (1+x) = K with x = V/Vt
  // and K = (Iph + I0)/I0; in log form g(x) = x + log1p(x) - ln K = 0,
  // monotone in x. Newton from x0 = ln K (= Voc/Vt) reaches machine
  // precision in a handful of iterations — versus 80 golden-section probes
  // of the exp-heavy curve, which is what made the MPP-yield accounting the
  // hottest path of the whole simulator.
  //
  // The solve reads only the photo current, the saturation current and the
  // thermal voltage, so it is memoized on their bit patterns (BitKeyMemo).
  // The memo sits below Harvester::maximum_power_point, whose recompute
  // counter still counts every call.
  const double vt = thermal_voltage();
  const BitKeyMemo<4, 3, OperatingPoint>::Key key{
      bits(photo_current_.value()), bits(saturation_current_.value()),
      bits(vt)};
  thread_local BitKeyMemo<4, 3, OperatingPoint> memo;
  if (const OperatingPoint* hit = memo.find(key)) return *hit;
  const double ln_k =
      std::log1p(photo_current_.value() / saturation_current_.value());
  double x = ln_k;
  for (int i = 0; i < 16; ++i) {
    const double g = x + std::log1p(x) - ln_k;
    const double step = g / (1.0 + 1.0 / (1.0 + x));
    x -= step;
    if (x < 0.0) x = 0.0;
    if (std::fabs(step) <= 1e-15 * std::max(1.0, x)) break;
  }
  OperatingPoint mpp;
  mpp.v = Volts{vt * x};
  mpp.i = current_at(mpp.v);
  mpp.p = mpp.v * mpp.i;
  memo.insert(key, mpp);
  return mpp;
}

OperatingPoint PvPanel::shifted_mpp(Volts shift) const {
  const double s = shift.value();
  if (s <= 0.0) return maximum_power_point();
  if (photo_current_.value() <= 0.0 ||
      open_circuit_voltage().value() <= s)
    return OperatingPoint{};
  // Maximize (u - s) I(u) over the panel voltage u. Stationarity on the
  // single-diode curve gives e^x (1 + x - d) = K with x = u/Vt, d = s/Vt,
  // K = (Iph + I0)/I0 — the same log-domain Newton as compute_mpp with the
  // knee shifted by the diode drop: g(x) = x + log1p(x - d) - ln K.
  const double vt = thermal_voltage();
  const double d = s / vt;
  const double ln_k =
      std::log1p(photo_current_.value() / saturation_current_.value());
  double x = ln_k;  // = Voc/Vt > d here, so g(x0) >= 0 and 1 + x0 - d > 1
  for (int i = 0; i < 16; ++i) {
    const double g = x + std::log1p(x - d) - ln_k;
    const double step = g / (1.0 + 1.0 / (1.0 + x - d));
    x -= step;
    if (x < d) x = d;
    if (std::fabs(step) <= 1e-15 * std::max(1.0, x)) break;
  }
  OperatingPoint mpp;
  mpp.v = Volts{vt * x - s};
  mpp.i = current_at(Volts{vt * x});
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

// ---------------------------------------------------------------------------
// WindTurbine
// ---------------------------------------------------------------------------

WindTurbine::WindTurbine(std::string name, Params params)
    : WindTurbine(std::move(name), params, HarvesterKind::kWind) {}

WindTurbine::WindTurbine(std::string name, Params params, HarvesterKind kind)
    : name_(std::move(name)), params_(params), kind_(kind) {
  require_spec(params_.rotor_area_m2 > 0.0, "turbine rotor area must be > 0");
  require_spec(params_.power_coefficient > 0.0 && params_.power_coefficient < 0.593,
               "turbine Cp must be in (0, Betz limit)");
  require_spec(params_.cut_in.value() >= 0.0, "turbine cut-in must be >= 0");
  require_spec(params_.rated > params_.cut_in, "turbine rated speed must exceed cut-in");
  require_spec(params_.internal_resistance.value() > 0.0,
               "turbine internal resistance must be > 0");
  require_spec(params_.fluid_density > 0.0, "fluid density must be > 0");
}

WindTurbine WindTurbine::water_turbine(std::string name) {
  Params p;
  p.rotor_area_m2 = 0.002;       // small in-pipe rotor
  p.power_coefficient = 0.30;
  p.cut_in = MetersPerSecond{0.3};
  p.rated = MetersPerSecond{3.0};
  p.voc_per_ms = Volts{3.0};
  p.internal_resistance = Ohms{25.0};
  p.fluid_density = 1000.0;      // water
  return WindTurbine(std::move(name), p, HarvesterKind::kWaterFlow);
}

void WindTurbine::do_set_conditions(const env::AmbientConditions& c) {
  latch_speed(env::sanitized(kind_ == HarvesterKind::kWaterFlow ? c.water_flow
                                                                : c.wind_speed));
}

void WindTurbine::latch_speed(MetersPerSecond speed) {
  const double v = std::min(speed.value(), params_.rated.value());
  if (speed < params_.cut_in) {
    available_ = Watts{0.0};
    source_ = TheveninSource{Volts{0.0}, params_.internal_resistance};
    return;
  }
  available_ = Watts{0.5 * params_.fluid_density * params_.rotor_area_m2 *
                     params_.power_coefficient * v * v * v};
  source_ = TheveninSource{params_.voc_per_ms * v, params_.internal_resistance};
}

Amps WindTurbine::current_at(Volts v) const {
  if (available_.value() <= 0.0 || v.value() < 0.0) return Amps{0.0};
  const Amps thevenin = source_.current_at(v);
  if (v.value() <= 0.0) return thevenin;
  // The generator cannot exceed the aerodynamically available power.
  const Amps power_cap = available_ / v;
  return std::min(thevenin, power_cap);
}

Volts WindTurbine::open_circuit_voltage() const {
  return available_.value() > 0.0 ? source_.voc : Volts{0.0};
}


std::optional<TheveninSource> WindTurbine::thevenin_equivalent() const {
  if (available_.value() <= 0.0)
    return TheveninSource{Volts{0.0}, params_.internal_resistance};
  if (source_.max_power().value() <= available_.value()) return source_;
  return std::nullopt;  // aero cap carves a plateau into the curve
}

OperatingPoint WindTurbine::shifted_mpp(Volts shift) const {
  const double s = shift.value();
  if (s <= 0.0) return maximum_power_point();
  const double voc = open_circuit_voltage().value();
  if (voc <= s) return OperatingPoint{};
  const double r = params_.internal_resistance.value();
  // Shifted Thevenin objective (u - s)(Voc - u)/R peaks at (Voc + s)/2; if
  // the aero cap bites, the objective is increasing across the constant-power
  // plateau, so its upper edge is the only other candidate. Evaluate both
  // through the authoritative (capped) curve and keep the better.
  double best_u = std::clamp(0.5 * (voc + s), s, voc);
  double best_p = (best_u - s) * current_at(Volts{best_u}).value();
  const double disc = voc * voc - 4.0 * r * available_.value();
  if (disc > 0.0) {
    const double edge = std::clamp(0.5 * (voc + std::sqrt(disc)), s, voc);
    const double p = (edge - s) * current_at(Volts{edge}).value();
    if (p > best_p) {
      best_p = p;
      best_u = edge;
    }
  }
  OperatingPoint mpp;
  mpp.v = Volts{best_u - s};
  mpp.i = current_at(Volts{best_u});
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

OperatingPoint WindTurbine::compute_mpp() const {
  if (available_.value() <= 0.0 || source_.voc.value() <= 0.0)
    return OperatingPoint{};
  const double voc = source_.voc.value();
  const double r = params_.internal_resistance.value();
  double v_star = 0.5 * voc;
  if (voc * voc / (4.0 * r) > available_.value()) {
    // The aero cap flattens the top of the Thevenin parabola into a plateau
    // of constant power; operate at its upper edge (the highest voltage that
    // still draws the full available power), where generator current equals
    // the cap: (Voc - V) V / R = P_avail.
    const double disc = voc * voc - 4.0 * r * available_.value();
    v_star = 0.5 * (voc + std::sqrt(std::max(0.0, disc)));
  }
  OperatingPoint mpp;
  mpp.v = Volts{v_star};
  mpp.i = current_at(mpp.v);
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

// ---------------------------------------------------------------------------
// Teg
// ---------------------------------------------------------------------------

Teg::Teg(std::string name, Params params) : name_(std::move(name)), params_(params) {
  require_spec(params_.seebeck_per_kelvin.value() > 0.0, "TEG Seebeck must be > 0");
  require_spec(params_.internal_resistance.value() > 0.0,
               "TEG internal resistance must be > 0");
}

// Teg's conditions/curve/MPP overrides are inline in transducers.hpp (hot
// path).

// ---------------------------------------------------------------------------
// VibrationHarvester
// ---------------------------------------------------------------------------

VibrationHarvester::VibrationHarvester(std::string name, Params params,
                                       HarvesterKind kind)
    : name_(std::move(name)), params_(params), kind_(kind) {
  require_spec(kind == HarvesterKind::kPiezo || kind == HarvesterKind::kInductive,
               "VibrationHarvester kind must be piezo or inductive");
  require_spec(params_.proof_mass_kg > 0.0, "proof mass must be > 0");
  require_spec(params_.damping_ratio > 0.0 && params_.damping_ratio < 1.0,
               "damping ratio must be in (0,1)");
  require_spec(params_.resonant_frequency.value() > 0.0, "resonance must be > 0");
  require_spec(params_.optimal_voltage.value() > 0.0, "optimal voltage must be > 0");
  require_spec(params_.transduction_efficiency > 0.0 &&
                   params_.transduction_efficiency <= 1.0,
               "transduction efficiency must be in (0,1]");
}

VibrationHarvester VibrationHarvester::piezo(std::string name, Params params) {
  return VibrationHarvester(std::move(name), params, HarvesterKind::kPiezo);
}

VibrationHarvester VibrationHarvester::electromagnetic(std::string name, Params params) {
  params.optimal_voltage = Volts{1.2};  // EM transducers are low-voltage
  params.transduction_efficiency = 0.5;
  return VibrationHarvester(std::move(name), params, HarvesterKind::kInductive);
}

// VibrationHarvester's conditions/curve/MPP overrides are inline in
// transducers.hpp (hot path).

// ---------------------------------------------------------------------------
// RfHarvester
// ---------------------------------------------------------------------------

RfHarvester::RfHarvester(std::string name, Params params)
    : name_(std::move(name)), params_(params) {
  require_spec(params_.aperture_m2 > 0.0, "RF aperture must be > 0");
  require_spec(params_.peak_efficiency > 0.0 && params_.peak_efficiency <= 1.0,
               "RF efficiency must be in (0,1]");
  require_spec(params_.efficiency_knee.value() > 0.0, "RF efficiency knee must be > 0");
  require_spec(params_.optimal_voltage.value() > 0.0, "RF optimal voltage must be > 0");
}

// RfHarvester's conditions/curve/MPP overrides are inline in transducers.hpp
// (hot path).

// ---------------------------------------------------------------------------
// AcDcSource
// ---------------------------------------------------------------------------

AcDcSource::AcDcSource(std::string name, Params params)
    : name_(std::move(name)), params_(params) {
  require_spec(params_.rectified_voc.value() > 5.0,
               "EH-Link class AC/DC input requires > 5 V");
  require_spec(params_.internal_resistance.value() > 0.0,
               "AC/DC internal resistance must be > 0");
}

void AcDcSource::do_set_conditions(const env::AmbientConditions& c) {
  energized_ = env::sanitized(c.vibration_rms) >= params_.machinery_threshold;
}

Amps AcDcSource::current_at(Volts v) const {
  if (!energized_ || v.value() < 0.0) return Amps{0.0};
  return TheveninSource{params_.rectified_voc, params_.internal_resistance}.current_at(v);
}

Volts AcDcSource::open_circuit_voltage() const {
  return energized_ ? params_.rectified_voc : Volts{0.0};
}


OperatingPoint AcDcSource::compute_mpp() const {
  if (!energized_) return OperatingPoint{};
  return thevenin_mpp(*this, params_.rectified_voc);
}

}  // namespace msehsim::harvest
