// Per-component concrete-type dispatch for batched lanes.
//
// Resolved once per lane (one dynamic_cast per component at setup), then the
// hot loop dispatches through a predictable switch on the tag instead of a
// vtable. kGeneric is the scalar slow path: any component whose concrete
// type is not anticipated here — a test double, a future subclass — keeps
// exactly the historic virtual dispatch while the rest of the lane stays
// fast. Every listed class is `final`, so the static_cast branches
// devirtualize (and mostly inline) the calls inside Platform::step_with /
// InputChain::step_typed.
//
// Internal header of systems/batch_runner.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "env/conditions.hpp"
#include "fault/faulty_harvester.hpp"
#include "harvest/combiner.hpp"
#include "harvest/transducers.hpp"
#include "power/chain.hpp"
#include "storage/battery.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/storage.hpp"
#include "storage/supercapacitor.hpp"
#include "storage/switched.hpp"

namespace msehsim::systems::lanedispatch {

enum class HTag : std::uint8_t {
  kGeneric,
  kPv,
  kWind,
  kTeg,
  kVibration,
  kRf,
  kAcDc,
  kCombiner,
  kFaulty,  ///< fault::FaultyHarvester wrapper (its inner stays virtual)
};

enum class STag : std::uint8_t {
  kGeneric,
  kSupercap,
  kBattery,
  kFuelCell,
  kSwitched,
};

inline HTag classify_harvester(const harvest::Harvester& h) {
  if (dynamic_cast<const harvest::PvPanel*>(&h) != nullptr) return HTag::kPv;
  if (dynamic_cast<const harvest::WindTurbine*>(&h) != nullptr)
    return HTag::kWind;
  if (dynamic_cast<const harvest::Teg*>(&h) != nullptr) return HTag::kTeg;
  if (dynamic_cast<const harvest::VibrationHarvester*>(&h) != nullptr)
    return HTag::kVibration;
  if (dynamic_cast<const harvest::RfHarvester*>(&h) != nullptr)
    return HTag::kRf;
  if (dynamic_cast<const harvest::AcDcSource*>(&h) != nullptr)
    return HTag::kAcDc;
  if (dynamic_cast<const harvest::DiodeOrCombiner*>(&h) != nullptr)
    return HTag::kCombiner;
  if (dynamic_cast<const fault::FaultyHarvester*>(&h) != nullptr)
    return HTag::kFaulty;
  return HTag::kGeneric;
}

inline STag classify_store(const storage::StorageDevice& d) {
  if (dynamic_cast<const storage::Supercapacitor*>(&d) != nullptr)
    return STag::kSupercap;
  if (dynamic_cast<const storage::Battery*>(&d) != nullptr)
    return STag::kBattery;
  if (dynamic_cast<const storage::FuelCell*>(&d) != nullptr)
    return STag::kFuelCell;
  if (dynamic_cast<const storage::SwitchedStorage*>(&d) != nullptr)
    return STag::kSwitched;
  return STag::kGeneric;
}

/// Visits @p h through its concrete `final` type per @p tag. kGeneric calls
/// @p f on the abstract base, preserving the historic virtual dispatch.
template <typename F>
auto with_harvester(HTag tag, harvest::Harvester& h, F&& f) {
  switch (tag) {
    case HTag::kPv: return f(static_cast<harvest::PvPanel&>(h));
    case HTag::kWind: return f(static_cast<harvest::WindTurbine&>(h));
    case HTag::kTeg: return f(static_cast<harvest::Teg&>(h));
    case HTag::kVibration:
      return f(static_cast<harvest::VibrationHarvester&>(h));
    case HTag::kRf: return f(static_cast<harvest::RfHarvester&>(h));
    case HTag::kAcDc: return f(static_cast<harvest::AcDcSource&>(h));
    case HTag::kCombiner: return f(static_cast<harvest::DiodeOrCombiner&>(h));
    case HTag::kFaulty: return f(static_cast<fault::FaultyHarvester&>(h));
    case HTag::kGeneric: break;
  }
  return f(h);
}

/// Dispatch policy for Platform::step_with (see GenericStepOps for the
/// contract): identical statements, direct calls. One instance per lane.
struct LaneOps {
  std::vector<HTag> chain_tag;                 ///< per input chain
  std::vector<STag> store_tag;                 ///< per storage slot
  std::vector<storage::StorageKind> store_kind;///< kind(), precomputed
  std::vector<storage::FuelCell*> cells;       ///< non-null iff slot is a cell

  template <typename F>
  auto with_store(std::size_t i, storage::StorageDevice& d, F&& f) const {
    switch (store_tag[i]) {
      case STag::kSupercap: return f(static_cast<storage::Supercapacitor&>(d));
      case STag::kBattery: return f(static_cast<storage::Battery&>(d));
      case STag::kFuelCell: return f(static_cast<storage::FuelCell&>(d));
      case STag::kSwitched: return f(static_cast<storage::SwitchedStorage&>(d));
      case STag::kGeneric: break;
    }
    return f(d);
  }
  template <typename F>
  auto with_store(std::size_t i, const storage::StorageDevice& d, F&& f) const {
    switch (store_tag[i]) {
      case STag::kSupercap:
        return f(static_cast<const storage::Supercapacitor&>(d));
      case STag::kBattery: return f(static_cast<const storage::Battery&>(d));
      case STag::kFuelCell: return f(static_cast<const storage::FuelCell&>(d));
      case STag::kSwitched:
        return f(static_cast<const storage::SwitchedStorage&>(d));
      case STag::kGeneric: break;
    }
    return f(d);
  }

  template <typename Timer>
  Watts chain_step(std::size_t i, power::InputChain& chain,
                   const env::AmbientConditions& c, Volts bus_v, Seconds now,
                   Seconds dt, Timer& timer) const {
    return with_harvester(chain_tag[i], chain.harvester(), [&](auto& h) {
      return chain.step_typed(h, c, bus_v, now, dt, timer);
    });
  }

  storage::StorageKind kind(std::size_t i,
                            const storage::StorageDevice&) const {
    return store_kind[i];
  }
  Volts voltage(std::size_t i, const storage::StorageDevice& d) const {
    return with_store(i, d, [](const auto& s) { return s.voltage(); });
  }
  Watts max_discharge_power(std::size_t i,
                            const storage::StorageDevice& d) const {
    return with_store(i, d,
                      [](const auto& s) { return s.max_discharge_power(); });
  }
  Watts charge(std::size_t i, storage::StorageDevice& d, Watts p,
               Seconds dt) const {
    return with_store(i, d, [&](auto& s) { return s.charge(p, dt); });
  }
  Watts discharge(std::size_t i, storage::StorageDevice& d, Watts p,
                  Seconds dt) const {
    return with_store(i, d, [&](auto& s) { return s.discharge(p, dt); });
  }
  void apply_leakage(std::size_t i, storage::StorageDevice& d,
                     Seconds dt) const {
    with_store(i, d, [&](auto& s) { s.apply_leakage(dt); });
  }
  storage::FuelCell* fuel_cell(std::size_t i, storage::StorageDevice&) const {
    return cells[i];
  }
};

}  // namespace msehsim::systems::lanedispatch
