#include "bus/module_port.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::bus {

ModulePort::ModulePort(std::uint8_t address, const ElectronicDatasheet& datasheet,
                       Telemetry telemetry)
    : address_(address), eeprom_(datasheet.encode()), telemetry_(std::move(telemetry)) {
  require_spec(eeprom_.size() == ElectronicDatasheet::kEncodedSize,
               "ModulePort: bad datasheet image");
}

std::uint32_t ModulePort::live_u32(std::uint8_t base_reg) const {
  auto to_u32 = [](double v) {
    return static_cast<std::uint32_t>(
        std::clamp(std::llround(v), 0LL, 0xFFFFFFFFLL));
  };
  switch (base_reg) {
    case kRegPowerUw:
      return telemetry_.output_power ? to_u32(telemetry_.output_power().value() * 1e6)
                                     : 0u;
    case kRegEnergyMj:
      return telemetry_.stored_energy
                 ? to_u32(telemetry_.stored_energy().value() * 1e3)
                 : 0u;
    case kRegVoltageMv:
      return telemetry_.terminal_voltage
                 ? to_u32(telemetry_.terminal_voltage().value() * 1e3)
                 : 0u;
    default:
      return 0u;
  }
}

int ModulePort::live_field(std::uint8_t reg) {
  for (int f = 0; f < 3; ++f)
    if (reg >= kLiveBases[f] && reg < kLiveBases[f] + 4) return f;
  return -1;
}

std::optional<std::uint8_t> ModulePort::read_register(std::uint8_t reg) {
  std::uint8_t value = 0;
  if (read_registers(reg, 1, &value) == 0) return std::nullopt;
  return value;
}

std::size_t ModulePort::read_registers(std::uint8_t start, std::size_t count,
                                       std::uint8_t* out) {
  std::optional<std::uint32_t> live[3];  // evaluated once per transaction
  for (std::size_t i = 0; i < count; ++i) {
    const auto reg = static_cast<std::uint8_t>(start + i);
    if (reg < ElectronicDatasheet::kEncodedSize) {
      out[i] = eeprom_[reg];
    } else if (reg == kRegStatus) {
      out[i] = telemetry_.active && telemetry_.active() ? 1 : 0;
    } else if (const int f = live_field(reg); f >= 0) {
      if (!live[f]) live[f] = live_u32(kLiveBases[f]);
      out[i] = static_cast<std::uint8_t>(*live[f] >> (8 * (reg - kLiveBases[f])));
    } else if (reg == kRegControl) {
      out[i] = control_;
    } else {
      return i;  // unmapped register: NAK
    }
  }
  return count;
}

bool ModulePort::write_register(std::uint8_t reg, std::uint8_t value) {
  if (reg == kRegControl) {
    control_ = value;
    if (telemetry_.set_enabled) telemetry_.set_enabled((value & 1) != 0);
    return true;
  }
  return false;  // datasheet EEPROM and telemetry are read-only over the bus
}

std::optional<ElectronicDatasheet> read_datasheet(I2cBus& bus, std::uint8_t address) {
  const auto raw = bus.read(address, ModulePort::kRegDatasheet,
                            ElectronicDatasheet::kEncodedSize);
  if (!raw) return std::nullopt;
  return ElectronicDatasheet::decode(*raw);
}

std::optional<std::uint32_t> read_live_u32(I2cBus& bus, std::uint8_t address,
                                           std::uint8_t base_reg) {
  std::uint8_t raw[4];
  if (!bus.read_into(address, base_reg, 4, raw)) return std::nullopt;
  return static_cast<std::uint32_t>(raw[0]) |
         (static_cast<std::uint32_t>(raw[1]) << 8) |
         (static_cast<std::uint32_t>(raw[2]) << 16) |
         (static_cast<std::uint32_t>(raw[3]) << 24);
}

}  // namespace msehsim::bus
