/// \file
/// Counting replacement of the global operator new/delete. Linked into every
/// executable of the benchmark (never into the lbsim libraries), so the
/// program's own allocations are counted without touching its code. Counting
/// costs one relaxed load per allocation while off. Over-aligned allocations
/// keep the library's default operators and are not counted; lbsim makes none.

#include <atomic>
#include <cstdlib>
#include <new>

#include "probes.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  // malloc(0) may return null; operator new must return a unique pointer.
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

namespace hostbench {

void set_alloc_counting(bool on) noexcept { g_counting.store(on, std::memory_order_relaxed); }

AllocCounts alloc_counts() noexcept {
  return {g_count.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace hostbench

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
