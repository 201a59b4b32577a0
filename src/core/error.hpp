// Error types for msehsim.
//
// Construction-time specification errors (impossible capacitances, negative
// efficiencies, malformed wiring) throw SpecError: a component that cannot
// establish its invariant must not exist (Core Guidelines C.42). Runtime
// electrical anomalies — brownout, over-voltage, bus NAK — are *modelled
// behaviour*, reported through return values and event counters, never
// exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace msehsim {

/// Thrown when a component is constructed with a physically meaningless or
/// inconsistent specification.
class SpecError : public std::invalid_argument {
 public:
  explicit SpecError(const std::string& what) : std::invalid_argument(what) {}
};

/// Throws SpecError with @p message unless @p condition holds.
inline void require_spec(bool condition, const std::string& message) {
  if (!condition) throw SpecError(message);
}

/// Literal-message overload: a string literal binds here instead of
/// converting to std::string, so a passing check allocates nothing and the
/// message is built only on the throw path. Hot per-step checks
/// (SensorNode::step, CompiledTrace::at) depend on that.
inline void require_spec(bool condition, const char* message) {
  if (!condition) [[unlikely]] throw SpecError(message);
}

}  // namespace msehsim
