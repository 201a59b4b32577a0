// Stage timing for the lane-step.
//
// BatchRunner::run, Platform::step_with and InputChain::step_typed take a
// timer policy that is told where each stage of the step ends. The default,
// NoStageTimer, has empty inline members, so the untimed instantiations —
// every campaign, daemon request and experiment — compile to the code they
// would have without the policy. StageClock reads the CPU timestamp counter
// (steady_clock where there is none) at each stage boundary and adds the
// ticks since the previous boundary, and one call, to that stage;
// bench/bench_layers converts ticks to nanoseconds against the wall clock of
// the same run and reports what the stages do not cover.
//
// A timer reads only the clock: timed and untimed runs produce the same
// RunResult bytes.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace msehsim::obs {

/// The stages of one lane-step, in execution order.
enum class Stage : std::uint8_t {
  kAmbientDecode,   ///< CompiledTrace::at, once per step for the whole batch
  kEvents,          ///< due events: management ticks, probes, faults, timeline
  kBusVoltage,      ///< the front store's terminal voltage
  kConditions,      ///< Harvester::set_conditions, the conditions latch
  kTracker,         ///< MpptController::update, on the steps it is due
  kOperatingPoint,  ///< transducer power at the setpoint, converter cold start
  kConverter,       ///< tracker duty, converter transfer, chain accumulators
  kMppOracle,       ///< Harvester::maximum_power_point for tracking efficiency
  kLoad,            ///< quiescent draw, output chain and sensor node
  kStorage,         ///< charging or discharging the bank by priority
  kFuelCell,        ///< fuel-cell refills of the ambient-fed stores
  kLeakage,         ///< self-discharge of every store
  kLaneTail,        ///< the lane's input statistics and query arrivals
  kCount,
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

[[nodiscard]] constexpr std::string_view stage_name(Stage stage) {
  constexpr std::array<std::string_view, kStageCount> kNames{
      "ambient_decode", "events",   "bus_voltage", "chain.conditions",
      "chain.tracker",  "chain.operating_point",   "chain.converter",
      "chain.mpp_oracle", "load",   "storage",     "fuel_cell",
      "leakage",        "lane_tail"};
  return kNames[static_cast<std::size_t>(stage)];
}

/// The untimed policy: every member is an empty inline function.
struct NoStageTimer {
  [[nodiscard]] std::uint64_t start() const { return 0; }
  std::uint64_t lap(Stage /*stage*/, std::uint64_t /*since*/) { return 0; }
};
static_assert(std::is_empty_v<NoStageTimer>);

/// Accumulates ticks and calls per stage. One clock per thread.
class StageClock {
 public:
  [[nodiscard]] static std::uint64_t read() {
#if defined(__x86_64__) || defined(__i386__)
    // lfence: the read waits for every earlier instruction to finish, so a
    // long-latency result (an expm1) is charged to the stage that computed
    // it, not to the next stage that reads it.
    _mm_lfence();
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  [[nodiscard]] std::uint64_t start() const { return read(); }

  /// Charges the ticks since @p since to @p stage; returns the new mark.
  std::uint64_t lap(Stage stage, std::uint64_t since) {
    const std::uint64_t now = read();
    const auto i = static_cast<std::size_t>(stage);
    ticks_[i] += now - since;
    ++calls_[i];
    return now;
  }

  [[nodiscard]] std::uint64_t ticks(Stage stage) const {
    return ticks_[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] std::uint64_t calls(Stage stage) const {
    return calls_[static_cast<std::size_t>(stage)];
  }

 private:
  std::array<std::uint64_t, kStageCount> ticks_{};
  std::array<std::uint64_t, kStageCount> calls_{};
};

}  // namespace msehsim::obs
