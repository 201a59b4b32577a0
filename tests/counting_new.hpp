// Replaces the global operator new and delete with versions that count
// allocations and track live heap bytes. Include it from exactly one
// translation unit of a test executable, and keep that executable apart
// from every other suite: the replacement is process-wide.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace msehsim::testing {

/// Allocations made so far by any form of operator new.
inline std::atomic<long> g_allocations{0};
/// Bytes requested from operator new and not yet deleted.
inline std::atomic<long long> g_live_bytes{0};

namespace detail {

// Each block carries a header of max(align, 16) bytes in front of the
// pointer handed out; its last two words are the requested size and the
// header length, which is all operator delete needs to undo it.
constexpr std::size_t kMinHeader = 2 * sizeof(std::size_t);
constexpr std::size_t kPlain = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

// Not inlined: GCC would otherwise follow a `new` into the header arithmetic
// of the matching `delete` and warn about the offset pointer it frees.
[[gnu::noinline]] inline void* tracked_alloc(std::size_t size,
                                             std::size_t align) noexcept {
  const std::size_t header = std::max(align, kMinHeader);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t total = (header + size + header - 1) / header * header;
  auto* base = static_cast<char*>(std::aligned_alloc(header, total));
  if (base == nullptr) return nullptr;
  char* user = base + header;
  reinterpret_cast<std::size_t*>(user)[-1] = size;
  reinterpret_cast<std::size_t*>(user)[-2] = header;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<long long>(size),
                         std::memory_order_relaxed);
  return user;
}

[[gnu::noinline]] inline void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  const std::size_t size = reinterpret_cast<std::size_t*>(user)[-1];
  const std::size_t header = reinterpret_cast<std::size_t*>(user)[-2];
  g_live_bytes.fetch_sub(static_cast<long long>(size),
                         std::memory_order_relaxed);
  std::free(user - header);
}

inline void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace detail
}  // namespace msehsim::testing

// Every replaceable form, so no allocation bypasses the count and every
// block is released by the tracked_free() that matches its tracked_alloc()
// (a sanitizer runtime otherwise supplies the forms left out, with its own
// allocator).
void* operator new(std::size_t n) {
  using namespace msehsim::testing::detail;
  return or_throw(tracked_alloc(n, kPlain));
}
void* operator new[](std::size_t n) {
  using namespace msehsim::testing::detail;
  return or_throw(tracked_alloc(n, kPlain));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  using namespace msehsim::testing::detail;
  return tracked_alloc(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  using namespace msehsim::testing::detail;
  return tracked_alloc(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a) {
  using namespace msehsim::testing::detail;
  return or_throw(tracked_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  using namespace msehsim::testing::detail;
  return or_throw(tracked_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  using namespace msehsim::testing::detail;
  return tracked_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  using namespace msehsim::testing::detail;
  return tracked_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete[](void* p) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  msehsim::testing::detail::tracked_free(p);
}
