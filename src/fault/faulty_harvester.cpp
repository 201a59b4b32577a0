#include "fault/faulty_harvester.hpp"

#include "core/error.hpp"

namespace msehsim::fault {

FaultyHarvester::FaultyHarvester(std::unique_ptr<harvest::Harvester> inner,
                                 std::uint64_t seed)
    : inner_(std::move(inner)), rng_(seed, stream_key("fault.harvester")) {
  require_spec(inner_ != nullptr, "FaultyHarvester needs a harvester to wrap");
}

void FaultyHarvester::transition(Mode next) {
  if (next != mode_) ++transitions_;
  mode_ = next;
  open_this_step_ = false;
}

void FaultyHarvester::degrade(double output_fraction) {
  require_spec(output_fraction >= 0.0 && output_fraction <= 1.0,
               "degradation fraction must be in [0,1]");
  output_fraction_ = output_fraction;
  transition(Mode::kDegraded);
}

void FaultyHarvester::set_intermittent(double open_probability) {
  require_spec(open_probability >= 0.0 && open_probability <= 1.0,
               "open probability must be in [0,1]");
  open_probability_ = open_probability;
  transition(Mode::kIntermittentOpen);
}

void FaultyHarvester::do_set_conditions(const env::AmbientConditions& c) {
  inner_->set_conditions(c);
  switch (mode_) {
    case Mode::kHealthy:
      break;
    case Mode::kDegraded:
      ++faulted_steps_;
      break;
    case Mode::kIntermittentOpen:
      open_this_step_ = rng_.bernoulli(open_probability_);
      if (open_this_step_) ++faulted_steps_;
      break;
    case Mode::kStuckShort:
      ++faulted_steps_;
      break;
  }
}

bool FaultyHarvester::producing() const {
  if (mode_ == Mode::kStuckShort) return false;
  if (mode_ == Mode::kIntermittentOpen && open_this_step_) return false;
  return true;
}

Amps FaultyHarvester::current_at(Volts v) const {
  if (!producing()) return Amps{0.0};
  const Amps i = inner_->current_at(v);
  return mode_ == Mode::kDegraded ? i * output_fraction_ : i;
}

harvest::OperatingPoint FaultyHarvester::compute_mpp() const {
  if (!producing()) return harvest::OperatingPoint{};
  // Degradation scales current uniformly, so the inner argmax is the
  // wrapper's argmax; re-reading the current through the wrapper's own curve
  // applies the scaling exactly as any other caller would see it.
  harvest::OperatingPoint mpp = inner_->maximum_power_point();
  mpp.i = current_at(mpp.v);
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

std::optional<harvest::TheveninSource> FaultyHarvester::thevenin_equivalent()
    const {
  if (!producing()) return harvest::TheveninSource{Volts{0.0}, Ohms{1.0}};
  const auto inner = inner_->thevenin_equivalent();
  if (!inner || mode_ != Mode::kDegraded) return inner;
  if (output_fraction_ <= 0.0)
    return harvest::TheveninSource{Volts{0.0}, Ohms{1.0}};
  return harvest::TheveninSource{inner->voc, inner->r / output_fraction_};
}

harvest::OperatingPoint FaultyHarvester::shifted_mpp(Volts shift) const {
  if (!producing()) return harvest::OperatingPoint{};
  harvest::OperatingPoint mpp = inner_->shifted_mpp(shift);
  mpp.i = current_at(mpp.v + shift);
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

Volts FaultyHarvester::open_circuit_voltage() const {
  // An open connector still shows the source's Voc at the harvester side but
  // nothing reaches the chain terminals; a short clamps them to zero. Either
  // way the chain sees no usable voltage.
  if (!producing()) return Volts{0.0};
  return inner_->open_circuit_voltage();
}

}  // namespace msehsim::fault
