// Global heap-allocation counter (the same idiom as bench/bench_simperf.cpp):
// every operator new in the process, the simulator's and the protocol
// layers' included, bumps one counter. The benchmark runs on one thread, so
// counts repeat exactly for a given seed and repetition count.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "profile.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

namespace perfbench {
std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
