// Fault-injecting decorator around any Harvester.
//
// Wraps a transducer and perturbs its I-V curve according to the active
// fault mode, without the wrapped model knowing. The decorator advances its
// intermittent-connection state once per set_conditions() call — exactly
// once per simulation step, since the owning InputChain latches conditions
// every step — so a given seed replays the same open/closed pattern
// bit-for-bit regardless of how often the curve is sampled within the step.
#pragma once

#include <cstdint>
#include <memory>

#include "core/random.hpp"
#include "harvest/harvester.hpp"

namespace msehsim::fault {

class FaultyHarvester final : public harvest::Harvester {
 public:
  enum class Mode {
    kHealthy,           ///< transparent pass-through
    kDegraded,          ///< output current scaled by a fraction (soiling, aging)
    kIntermittentOpen,  ///< loose connector: whole steps read open-circuit
    kStuckShort,        ///< shorted terminals: no extractable power at all
  };

  /// @p seed drives the intermittent-connection stream only; two wrappers
  /// with equal seeds and call sequences behave identically.
  FaultyHarvester(std::unique_ptr<harvest::Harvester> inner, std::uint64_t seed);

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] harvest::HarvesterKind kind() const override {
    return inner_->kind();
  }
  [[nodiscard]] Amps current_at(Volts v) const override;
  [[nodiscard]] Volts open_circuit_voltage() const override;

  /// Faults preserve Thevenin-ness: a suppressed source is the zero source,
  /// uniform degradation of (Voc - V)/R is (Voc - V)/(R/f), and healthy mode
  /// passes the inner equivalent through.
  [[nodiscard]] std::optional<harvest::TheveninSource> thevenin_equivalent()
      const override;

  /// Uniform current scaling keeps the shifted argmax, so delegate to the
  /// inner closed form and re-read the current through this wrapper's curve.
  [[nodiscard]] harvest::OperatingPoint shifted_mpp(Volts shift) const override;

  // ---- Fault control ------------------------------------------------------

  /// Degraded mode: output current (hence power) scaled by @p output_fraction
  /// in [0, 1].
  void degrade(double output_fraction);

  /// Intermittent-open mode: each step reads open-circuit with probability
  /// @p open_probability, drawn from the seeded stream.
  void set_intermittent(double open_probability);

  /// Stuck-short mode: the transducer delivers nothing until healed.
  void stick_short() { transition(Mode::kStuckShort); }

  /// Back to transparent pass-through.
  void heal() { transition(Mode::kHealthy); }

  [[nodiscard]] Mode mode() const { return mode_; }

  /// False while the active fault suppresses all output (stuck short, or an
  /// intermittent connection that is open this step).
  [[nodiscard]] bool producing() const;

  /// Steps spent under an active fault (degraded counts every step; the
  /// intermittent mode counts only the open ones).
  [[nodiscard]] std::uint64_t faulted_steps() const { return faulted_steps_; }

  /// Mode changes away from the present mode (injections and heals).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

  [[nodiscard]] harvest::Harvester& inner() { return *inner_; }

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override;

  /// The wrapped MPP, derived from the inner harvester's operating point so
  /// a fault-free wrapper adds no golden-section work of its own.
  [[nodiscard]] harvest::OperatingPoint compute_mpp() const override;

 private:
  void transition(Mode next);

  std::unique_ptr<harvest::Harvester> inner_;
  Pcg32 rng_;
  Mode mode_{Mode::kHealthy};
  double output_fraction_{1.0};
  double open_probability_{0.0};
  bool open_this_step_{false};
  std::uint64_t faulted_steps_{0};
  std::uint64_t transitions_{0};
};

}  // namespace msehsim::fault
