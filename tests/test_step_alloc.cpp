// The lane-step allocates nothing once warm.
//
// This executable replaces the global operator new with a counting one, so
// it lives apart from every other suite. Each window counts the heap
// allocations made by 10,000 calls and must read zero: conditions are
// generated beforehand, and nothing inside a window talks to gtest.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "systems/catalog.hpp"
#include "systems/platform.hpp"

namespace {
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Every replaceable form, so no allocation bypasses the count and every
// block is released by the free() that matches its malloc() (a sanitizer
// runtime otherwise supplies the forms left out, with its own allocator).
void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace msehsim::systems {
namespace {

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
