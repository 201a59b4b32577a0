// Input and output conditioning chains.
//
// An InputChain is the survey's "input power conditioning circuit":
// harvester -> operating-point control (MPPT or fixed) -> converter ->
// storage bus. An OutputChain is the "output conditioning circuit":
// storage bus -> converter -> regulated rail feeding the embedded device.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "core/stats.hpp"
#include "core/units.hpp"
#include "env/conditions.hpp"
#include "harvest/harvester.hpp"
#include "obs/stage_timer.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"

namespace msehsim::power {

class InputChain {
 public:
  /// @p mppt_period how often the controller re-evaluates the setpoint.
  InputChain(std::unique_ptr<harvest::Harvester> harvester,
             std::unique_ptr<MpptController> mppt, Converter converter,
             Seconds mppt_period);

  /// Advances one step: latches @p conditions, runs the tracker if due, and
  /// returns the power delivered into the storage bus at @p bus_voltage
  /// (net of converter losses and amortized tracker overhead).
  Watts step(const env::AmbientConditions& conditions, Volts bus_voltage,
             Seconds now, Seconds dt) {
    return step_typed(*harvester_, conditions, bus_voltage, now, dt);
  }

  /// Single-source body of step(), parameterized on the harvester's static
  /// type. step() instantiates it at the abstract base (exactly the historic
  /// virtual-dispatch behaviour); the batched lane kernel
  /// (systems::BatchRunner) instantiates it at the pre-resolved `final`
  /// subclass so set_conditions / power_at / maximum_power_point devirtualize
  /// in the hot loop. @p h MUST be the chain's own harvester (the object
  /// harvester() returns) viewed through a more-derived reference — both
  /// instantiations run the identical statement sequence on the identical
  /// object, which is what makes batched and scalar runs byte-identical.
  /// @p timer is told where each stage ends (obs/stage_timer.hpp); the
  /// default policy does nothing.
  template <typename H, typename Timer = obs::NoStageTimer>
  Watts step_typed(H& h, const env::AmbientConditions& conditions,
                   Volts bus_voltage, Seconds now, Seconds dt,
                   Timer&& timer = Timer{}) {
    using obs::Stage;
    auto mark = timer.start();
    h.set_conditions(conditions);
    mark = timer.lap(Stage::kConditions, mark);

    if (thermal_shutdown_) {
      // The cut-out opens the power path; the MPP oracle keeps integrating so
      // tracking_efficiency() reflects the outage as lost harvest.
      transducer_power_ = Watts{0.0};
      harvestable_at_mpp_ += h.maximum_power_point().p * dt;
      ++shutdown_steps_;
      timer.lap(Stage::kMppOracle, mark);
      return Watts{0.0};
    }

    Seconds interruption{0.0};
    if (now >= next_update_) {
      if (sense_gain_ != 1.0) {
        // Drifted sensing: the tracker sees a skewed environment, picks its
        // setpoint on the wrong curve, then the true conditions come back for
        // the physics below.
        h.set_conditions(env::scaled(conditions, sense_gain_));
        operating_voltage_ = mppt_->update(h, operating_voltage_);
        h.set_conditions(conditions);
      } else {
        operating_voltage_ = mppt_->update(h, operating_voltage_);
      }
      overhead_ += update_overhead_;
      interruption = update_interruption_;
      next_update_ = now + mppt_period_;
      mark = timer.lap(Stage::kTracker, mark);
    }

    transducer_power_ = h.power_at(operating_voltage_);

    // Cold start: the converter cannot run until its input has once reached
    // the startup threshold; it stops (and must restart) if the input
    // collapses below its operating window.
    const Converter::Params& cp = converter_.params();
    if (cp.startup_voltage.value() > 0.0) {
      if (!started_ && operating_voltage_ >= cp.startup_voltage)
        started_ = true;
      if (started_ && operating_voltage_ < cp.min_input) started_ = false;
    } else {
      started_ = true;
    }
    mark = timer.lap(Stage::kOperatingPoint, mark);
    if (!started_) {
      harvestable_at_mpp_ += h.maximum_power_point().p * dt;
      timer.lap(Stage::kMppOracle, mark);
      return Watts{0.0};
    }
    // A Voc sample interrupts harvesting for part of the step. 1 - 0/dt is
    // exactly 1, so a step without one skips the division.
    Watts effective = transducer_power_;
    if (interruption.value() != 0.0)
      effective = transducer_power_ *
                  std::clamp(1.0 - interruption.value() / dt.value(), 0.0, 1.0);

    const Watts out =
        converter_.transfer(effective, operating_voltage_, bus_voltage) *
        droop_factor_;
    // Tracker overhead is paid from the bus, amortized over this step.
    const Watts net{std::max(0.0, out.value() - overhead_rate_)};
    delivered_ += net * dt;
    conversion_loss_ += (effective - out) * dt;
    overhead_paid_ += (out - net) * dt;
    harvested_at_setpoint_ += effective * dt;
    mark = timer.lap(Stage::kConverter, mark);
    harvestable_at_mpp_ += h.maximum_power_point().p * dt;
    timer.lap(Stage::kMppOracle, mark);
    return net;
  }

  [[nodiscard]] const harvest::Harvester& harvester() const { return *harvester_; }
  [[nodiscard]] harvest::Harvester& harvester() { return *harvester_; }

  /// Swaps the transducer feeding this chain and returns the old one.
  /// Used for module hot-swap and for wrapping the harvester in a
  /// fault::FaultyHarvester decorator; the operating point carries over and
  /// the tracker re-converges on the new curve.
  std::unique_ptr<harvest::Harvester> replace_harvester(
      std::unique_ptr<harvest::Harvester> replacement);
  [[nodiscard]] const MpptController& mppt() const { return *mppt_; }
  [[nodiscard]] const Converter& converter() const { return converter_; }
  [[nodiscard]] Volts operating_voltage() const { return operating_voltage_; }

  /// Raw transducer power at the present operating point (pre-conversion).
  [[nodiscard]] Watts transducer_power() const { return transducer_power_; }

  /// Accumulated energy delivered to the bus since construction.
  [[nodiscard]] Joules delivered_energy() const { return delivered_; }
  /// Accumulated tracker overhead energy.
  [[nodiscard]] Joules tracker_overhead_energy() const { return overhead_; }

  // ---- Energy-flow ledger probes (obs::EnergyLedger) ----------------------
  // Per-boundary accumulators with the exact chain identity
  // transducer = conversion_loss + tracker_paid + delivered, summed from
  // the same per-step quantities the power flow already computes.

  /// Energy extracted from the transducer at the operating point (after the
  /// tracker's sampling duty cycle).
  [[nodiscard]] Joules transducer_energy() const { return harvested_at_setpoint_; }
  /// Energy lost in the input converter (efficiency curve + fault droop).
  [[nodiscard]] Joules conversion_loss_energy() const { return conversion_loss_; }
  /// Tracker overhead actually paid from the converter output (differs from
  /// tracker_overhead_energy() when the output could not cover the full
  /// amortized overhead — the shortfall was never drawn).
  [[nodiscard]] Joules tracker_paid_energy() const { return overhead_paid_; }
  /// Tracking efficiency vs the true MPP, over time (1.0 = perfect).
  [[nodiscard]] double tracking_efficiency() const;

  /// True once the converter has bootstrapped (always true when the
  /// converter has no cold-start threshold).
  [[nodiscard]] bool started() const { return started_; }

  [[nodiscard]] Seconds mppt_period() const { return mppt_period_; }

  // ---- Fault injection (src/fault) ---------------------------------------
  // Converter anomalies are modelled behaviour (core/error.hpp): the chain
  // keeps running and the effects show up in delivered power and counters.

  /// Scales the converter's output by @p factor in (0, 1] — capacitor aging
  /// or inductor saturation drooping the efficiency curve. 1.0 heals.
  void set_efficiency_droop(double factor);
  [[nodiscard]] double efficiency_droop() const { return droop_factor_; }

  /// Converter over-temperature cut-out: while latched the chain delivers
  /// nothing (the transducer keeps its curve; energy is simply not moved).
  void set_thermal_shutdown(bool on);
  [[nodiscard]] bool thermal_shutdown() const { return thermal_shutdown_; }

  /// Times the converter entered thermal shutdown.
  [[nodiscard]] std::uint64_t thermal_shutdowns() const { return shutdown_events_; }
  /// Steps spent shut down (the outage's simulated extent).
  [[nodiscard]] std::uint64_t shutdown_steps() const { return shutdown_steps_; }

  /// Ambient-sensing drift (fault::FaultKind::kSensorDrift): the tracker's
  /// view of the environment is the true conditions scaled by @p gain, while
  /// the transducer physics keeps the true curve — so the controller chases
  /// the wrong operating point and tracking_efficiency() records the loss.
  /// 1.0 heals (and is byte-identical to the unfaulted path: no extra
  /// set_conditions calls are made).
  void set_sense_gain(double gain);
  [[nodiscard]] double sense_gain() const { return sense_gain_; }

 private:
  std::unique_ptr<harvest::Harvester> harvester_;
  std::unique_ptr<MpptController> mppt_;
  Converter converter_;
  Seconds mppt_period_;
  // The tracker's constants (a controller is never replaced): energy and
  // harvest time per update, and the per-second overhead amortized over
  // every step.
  Joules update_overhead_{0.0};
  Seconds update_interruption_{0.0};
  double overhead_rate_{0.0};
  Seconds next_update_{0.0};
  Volts operating_voltage_{0.5};
  Watts transducer_power_{0.0};
  Joules delivered_{0.0};
  Joules overhead_{0.0};
  Joules conversion_loss_{0.0};
  Joules overhead_paid_{0.0};
  Joules harvested_at_setpoint_{0.0};
  Joules harvestable_at_mpp_{0.0};
  bool started_{false};
  double droop_factor_{1.0};
  double sense_gain_{1.0};
  bool thermal_shutdown_{false};
  std::uint64_t shutdown_events_{0};
  std::uint64_t shutdown_steps_{0};
};

class OutputChain {
 public:
  OutputChain(Converter converter, Volts rail_voltage);

  /// Power that must be drawn from the store at @p bus_voltage so the rail
  /// delivers @p load_power. Returns 0 if conversion is infeasible
  /// (e.g. bus collapsed below the LDO dropout) — the caller treats that as
  /// a brownout.
  ///
  /// Memoized on the last call: the answer is a pure function of
  /// (load_power, bus_voltage) for a fixed converter and rail, so a call
  /// whose two inputs have the same bit patterns as the previous call's
  /// returns the stored result, identical to a fresh solve. The memo is
  /// plain mutable state: like a Harvester, an OutputChain belongs to one
  /// simulation at a time.
  [[nodiscard]] Watts required_bus_power(Watts load_power,
                                         Volts bus_voltage) const {
    const auto load_key = std::bit_cast<std::uint64_t>(load_power.value());
    const auto bus_key = std::bit_cast<std::uint64_t>(bus_voltage.value());
    if (!memo_valid_ || load_key != memo_load_ || bus_key != memo_bus_) {
      memo_power_ = rail_available(bus_voltage)
                        ? converter_.required_input(load_power, bus_voltage,
                                                    rail_voltage_)
                        : Watts{0.0};
      memo_load_ = load_key;
      memo_bus_ = bus_key;
      memo_valid_ = true;
    }
    return memo_power_;
  }

  /// True if the rail can be produced from @p bus_voltage at all.
  [[nodiscard]] bool rail_available(Volts bus_voltage) const;

  [[nodiscard]] Volts rail_voltage() const { return rail_voltage_; }
  [[nodiscard]] const Converter& converter() const { return converter_; }

 private:
  Converter converter_;
  Volts rail_voltage_;
  mutable bool memo_valid_{false};
  mutable std::uint64_t memo_load_{0};
  mutable std::uint64_t memo_bus_{0};
  mutable Watts memo_power_{0.0};
};

}  // namespace msehsim::power
