// Heap-allocation budget of the steady-state data path (DESIGN.md §11.5).
// Every operator new in this executable bumps one counter (the idiom of
// perfbench/alloc_counter.cpp). A simulated execution is a pure function of
// its seed, so the counts repeat exactly and the budgets below hold without
// wall-clock noise.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "app/world.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

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

// Once these are inlined, GCC pairs the free() with the library's operator
// new rather than the malloc() above and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace vsgc {
namespace {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

/// perfbench's `steady` deployment: 8 clients, 2 servers, no checkers, no
/// recording, converged into one view.
class AllocBudget : public ::testing::Test {
 protected:
  static app::WorldConfig config() {
    app::WorldConfig wc;
    wc.num_clients = 8;
    wc.num_servers = 2;
    wc.attach_checkers = false;
    wc.record_trace = false;
    return wc;
  }

  void SetUp() override {
    w.start();
    ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  }

  std::uint64_t delivered() {
    std::uint64_t n = 0;
    for (int i = 0; i < w.num_clients(); ++i) {
      n += w.process(i).endpoint().stats().delivered;
    }
    return n;
  }

  app::World w{config()};
};

TEST_F(AllocBudget, PumpWithNothingToDoAllocatesNothing) {
  gcs::GcsEndpoint& sender = w.process(0).endpoint();
  gcs::GcsEndpoint& ep = w.process(1).endpoint();
  const gcs::AppMsg m = sender.send("x");
  w.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(ep.last_dlvrd(sender.self()), 1);

  // A duplicate forward of a message already delivered changes no state, so
  // the pump it triggers finds every guard false.
  const std::any dup =
      gcs::wire::FwdMsg{sender.self(), ep.current_view(), 1, m};
  const std::uint64_t before = allocations();
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(ep.on_co_rfifo_deliver(sender.self(), dup));
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(ep.last_dlvrd(sender.self()), 1);
}

TEST_F(AllocBudget, SteadyMulticastStaysUnderTenAllocationsPerDelivery) {
  constexpr int kTicks = 100;
  const int n = w.num_clients();
  const std::string payload(64, 'm');
  const std::uint64_t delivered0 = delivered();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kTicks) * static_cast<std::uint64_t>(n * n);

  const std::uint64_t before = allocations();
  for (int t = 0; t < kTicks; ++t) {
    for (int c = 0; c < n; ++c) w.client(c).send(payload);
    w.run_for(sim::kMillisecond);
  }
  for (int k = 0; k < 100 && delivered() - delivered0 < expected; ++k) {
    w.run_for(10 * sim::kMillisecond);
  }
  const std::uint64_t allocs = allocations() - before;

  ASSERT_EQ(delivered() - delivered0, expected);
  const double per_delivery =
      static_cast<double>(allocs) / static_cast<double>(expected);
  RecordProperty("allocs_per_delivery", std::to_string(per_delivery));
  EXPECT_LE(per_delivery, 10.0) << allocs << " allocations for " << expected
                                << " deliveries";
}

}  // namespace
}  // namespace vsgc
