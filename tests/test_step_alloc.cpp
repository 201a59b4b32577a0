// The lane-step allocates nothing once warm.
//
// This executable replaces the global operator new with a counting one
// (counting_new.hpp), so it lives apart from every other suite. Each window
// counts the heap allocations made by 10,000 calls and must read zero:
// conditions are generated beforehand, and nothing inside a window talks to
// gtest.
#include <gtest/gtest.h>

#include <vector>

#include "counting_new.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "systems/catalog.hpp"
#include "systems/platform.hpp"

namespace msehsim::systems {
namespace {

using msehsim::testing::g_allocations;

constexpr int kWarmup = 2000;
constexpr int kWindow = 10000;
constexpr Seconds kDt{5.0};

const SystemId kAllSystems[] = {
    SystemId::kSmartPowerUnit, SystemId::kPlugAndPlay,  SystemId::kAmbiMax,
    SystemId::kMpWiNode,       SystemId::kMax17710Eval, SystemId::kCymbetEval09,
    SystemId::kEhLink,         SystemId::kSmartHarvester,
};

std::vector<env::AmbientConditions> conditions(env::EnvironmentModel& env,
                                               int steps) {
  std::vector<env::AmbientConditions> out;
  out.reserve(steps);
  Seconds now{0.0};
  for (int i = 0; i < steps; ++i) {
    out.push_back(env.advance(now, kDt));
    now += kDt;
  }
  return out;
}

/// Allocations made by the last kWindow of kWarmup + kWindow steps.
long window_allocations(SystemId id,
                        const std::vector<env::AmbientConditions>& conds) {
  auto platform = build(id, 1);
  Seconds now{0.0};
  for (int i = 0; i < kWarmup; ++i) {
    platform->step(conds[i], now, kDt);
    now += kDt;
  }
  const long before = g_allocations.load();
  for (int i = kWarmup; i < kWarmup + kWindow; ++i) {
    platform->step(conds[i], now, kDt);
    now += kDt;
  }
  return g_allocations.load() - before;
}

void* volatile g_escape = nullptr;

TEST(StepAlloc, CounterSeesAnAllocation) {
  const long before = g_allocations.load();
  g_escape = ::operator new(64);
  ::operator delete(g_escape);
  EXPECT_EQ(g_allocations.load() - before, 1);
}

TEST(StepAlloc, PlatformStepAllocatesNothingOnEverySystem) {
  auto outdoor = env::Environment::outdoor(1);
  auto indoor = env::Environment::indoor_industrial(1);
  const auto sites = {conditions(outdoor, kWarmup + kWindow),
                      conditions(indoor, kWarmup + kWindow)};
  for (const auto& conds : sites)
    for (const SystemId id : kAllSystems)
      EXPECT_EQ(window_allocations(id, conds), 0) << to_string(id);
}

/// Allocations made by kTicks management ticks (one per 60 s of steps, the
/// run loop's default cadence) after kWarmup steps and their ticks.
long tick_allocations(SystemId id,
                      const std::vector<env::AmbientConditions>& conds) {
  constexpr int kStepsPerTick = 12;  // 60 s at dt 5 s
  constexpr int kTicks = 166;
  auto platform = build(id, 1);
  Seconds now{0.0};
  for (int i = 0; i < kWarmup; ++i) {
    platform->step(conds[i], now, kDt);
    now += kDt;
    if ((i + 1) % kStepsPerTick == 0) platform->management_tick(now);
  }
  long made = 0;
  for (int t = 0; t < kTicks; ++t) {
    for (int k = 0; k < kStepsPerTick; ++k) {
      platform->step(conds[kWarmup + t * kStepsPerTick + k], now, kDt);
      now += kDt;
    }
    const long before = g_allocations.load();
    platform->management_tick(now);
    made += g_allocations.load() - before;
  }
  return made;
}

TEST(StepAlloc, ManagementTickAllocatesNothingOnBusMonitoredSystems) {
  // Systems A and B and the smart harvester poll their digital bus monitor
  // on every tick, through the retry ladder.
  auto indoor = env::Environment::indoor_industrial(1);
  const auto conds = conditions(indoor, kWarmup + kWindow);
  for (const SystemId id : {SystemId::kSmartPowerUnit, SystemId::kPlugAndPlay,
                            SystemId::kSmartHarvester})
    EXPECT_EQ(tick_allocations(id, conds), 0) << to_string(id);
}

TEST(StepAlloc, CompiledTraceAtAllocatesNothing) {
  auto outdoor = env::Environment::outdoor(1);
  const auto trace =
      env::CompiledTrace::compile(outdoor, kDt, Seconds{kDt.value() * kWindow});
  double sink = 0.0;
  const long before = g_allocations.load();
  for (std::size_t i = 0; i < static_cast<std::size_t>(kWindow); ++i)
    sink += trace->at(i).solar_irradiance.value();
  const long made = g_allocations.load() - before;
  EXPECT_EQ(made, 0);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace msehsim::systems
