// The replacement operator new and delete behind tests/alloc_counter.hpp.
#include "alloc_counter.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<vsgc::alloc_counter::Hook> g_hook{nullptr};
thread_local bool g_in_hook = false;

void* counted(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const vsgc::alloc_counter::Hook hook =
      g_hook.load(std::memory_order_relaxed);
  if (hook != nullptr && !g_in_hook) {
    g_in_hook = true;
    hook();
    g_in_hook = false;
  }
  return std::malloc(size);
}

}  // namespace

namespace vsgc::alloc_counter {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

void set_hook(Hook hook) { g_hook.store(hook, std::memory_order_relaxed); }

}  // namespace vsgc::alloc_counter

void* operator new(std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}

// std::stable_sort's temporary buffer comes from the nothrow form; it must
// pair with the free() below as well.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}

// Once these are inlined, GCC pairs the free() with the library's operator
// new rather than the malloc() above and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
