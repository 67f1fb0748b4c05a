// Heap-allocation budgets of the steady-state data path and of a view change
// (DESIGN.md §11.5).
// Every operator new in this executable bumps one counter
// (tests/alloc_counter.hpp). A simulated execution is a pure function of its
// seed, so the counts repeat exactly and the budgets below hold without
// wall-clock noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "alloc_counter.hpp"
#include "alloc_recipes.hpp"
#include "app/world.hpp"
#include "gcs/process.hpp"
#include "membership/oracle.hpp"
#include "net/network.hpp"
#include "spec/events.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc {
namespace {

using alloc_counter::allocations;

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

// Heartbeats are wrapped once: a server's once, a client's once per
// incarnation (DESIGN.md §11.5). A converged idle deployment sends nothing
// else, so once its heartbeats are wrapped a second of them allocates
// nothing. Each wrap cost two allocations before: the 16 B Heartbeat does
// not fit std::any's inline buffer.
TEST_F(AllocBudget, WarmedHeartbeatTicksAllocateNothing) {
  w.run_for(500 * sim::kMillisecond);
  const std::uint64_t before = allocations();
  w.run_for(sim::kSecond);
  EXPECT_EQ(allocations() - before, 0u);
}

// resync() moves the client's incarnation, so its next heartbeat is a new
// one: the server sees the blip and runs a fresh round, from which every
// client installs a new view.
TEST_F(AllocBudget, HeartbeatAfterResyncCarriesTheNewIncarnation) {
  const std::uint64_t rounds = w.server(0).stats().rounds_started;
  const ViewId before = w.process(0).endpoint().current_view().id;
  w.process(0).membership().resync();
  ASSERT_EQ(w.process(0).membership().resyncs(), 1u);
  w.run_for(100 * sim::kMillisecond);
  EXPECT_GT(w.server(0).stats().rounds_started, rounds);
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  EXPECT_LT(before, w.process(0).endpoint().current_view().id);
}

/// A client that never answers block(), so its end-point sends no sync
/// message until the test calls block_ok().
class HoldClient : public gcs::Client {
 public:
  void deliver(ProcessId, const gcs::AppMsg&) override {}
  void view(const View&, const ProcessSet&) override {}
  void block() override {}
};

// Figure 10's reliable set is current_view.set ∪ start_change.set. The
// end-point compares the desired set with the one it holds before it builds
// anything (DESIGN.md §11.5), so a start_change whose set the current view
// already covers allocates nothing and leaves the transport's set alone.
TEST(AllocBudgetStartChange, CoveredSetAllocatesNothing) {
  constexpr int kN = 3;
  sim::Simulator sim;
  net::Network network(sim, Rng(1), {});
  membership::OracleMembership oracle;
  std::vector<std::unique_ptr<transport::CoRfifoTransport>> xports;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  std::vector<HoldClient> clients(kN);
  std::set<ProcessId> all;
  for (int i = 0; i < kN; ++i) {
    const ProcessId p{static_cast<std::uint32_t>(i + 1)};
    all.insert(p);
    xports.push_back(std::make_unique<transport::CoRfifoTransport>(
        sim, network, net::node_of(p)));
    eps.push_back(std::make_unique<gcs::GcsEndpoint>(
        sim, *xports.back(), p,
        gcs::make_strategy(gcs::ForwardingKind::kMinCopies)));
    gcs::GcsEndpoint* ep = eps.back().get();
    ep->set_client(clients[static_cast<std::size_t>(i)]);
    xports.back()->set_deliver_handler(
        [ep](net::NodeId from, const std::any& payload) {
          ep->on_co_rfifo_deliver(net::process_of(from), payload);
        });
    oracle.attach(p, *ep);
  }
  oracle.start_change(all);
  for (auto& ep : eps) ep->block_ok();
  sim.run_to_quiescence();
  oracle.deliver_view(all);
  sim.run_to_quiescence();
  gcs::GcsEndpoint& ep = *eps[0];
  ASSERT_EQ(ep.current_view().members(), all);

  const ProcessSet covered(all);
  const std::uint32_t generation = xports[0]->reliable_generation();
  const std::uint64_t before = allocations();
  oracle.start_change_to(ep.self(), covered);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(xports[0]->reliable_generation(), generation)
      << "set_reliable was called";
  ASSERT_TRUE(ep.start_change().has_value());
  EXPECT_TRUE(ep.start_change()->second.shares_body_with(covered));
}

// Frames travel in recycled cells (DESIGN.md §11.1) and every holder of a
// message shares its payload (§11.5). On this deployment a delivery
// measured 7.16 allocations while every frame allocated its own cell, 2.80
// with recycled ones, and 0.75 once FifoBuffer's prefix is a vector and no
// layer copies a payload. What is left is per send, spread over the eight
// deliveries of each message: the caller's payload string, the message's
// shared body and its transport Payload wrap.
TEST_F(AllocBudget, SteadyMulticastStaysUnderBudget) {
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
  EXPECT_LE(per_delivery, 1.0) << allocs << " allocations for " << expected
                                << " deliveries";
}

// A CO_RFIFO frame travels in a cell its transport recycles (DESIGN.md
// §11.1). Once both ends hold a cell, one message's data frame and its
// standalone ack allocate nothing: a round trip costs the message's own
// Payload wrap. The sender's pending and unacked deques take a fresh node
// once per node's worth of entries, so now and then a trip costs two more.
TEST(AllocBudgetTransport, WarmedFrameAndAckAllocateOnlyThePayloadWrap) {
  sim::Simulator sim;
  net::Network network(sim, Rng(1), {});
  transport::CoRfifoTransport a(sim, network, net::NodeId{1});
  transport::CoRfifoTransport b(sim, network, net::NodeId{2});
  const std::set<net::NodeId> to_b{net::NodeId{2}};
  a.set_reliable(to_b);
  std::uint64_t delivered = 0;
  b.set_deliver_handler(
      [&delivered](net::NodeId, const std::any&) { ++delivered; });
  a.send(to_b, std::uint64_t{0}, 8);  // warm-up: each end makes its cell
  sim.run_to_quiescence();

  constexpr std::uint64_t kTrips = 48;
  std::uint64_t total = 0;
  std::uint64_t cheapest = UINT64_MAX;
  for (std::uint64_t uid = 1; uid <= kTrips; ++uid) {
    const std::uint64_t before = allocations();
    a.send(to_b, uid, 8);
    sim.run_to_quiescence();
    const std::uint64_t trip = allocations() - before;
    total += trip;
    cheapest = std::min(cheapest, trip);
  }
  ASSERT_EQ(delivered, kTrips + 1);
  EXPECT_EQ(a.stats().frame_cells_allocated, 1u);
  EXPECT_EQ(b.stats().frame_cells_allocated, 1u);
  EXPECT_EQ(cheapest, 1u) << "a trip's frames must cost nothing";
  EXPECT_LE(total, kTrips + kTrips / 4)
      << total << " allocations for " << kTrips << " round trips";
}

/// Heap allocations per view change of alloc_recipes::churn.
double allocs_per_view_change(int n, int cycles) {
  std::uint64_t before = 0;
  const int changes = alloc_recipes::churn(
      n, cycles, [&before]() { before = allocations(); });
  EXPECT_EQ(changes, 2 * cycles) << "a view change did not converge";
  return static_cast<double>(allocations() - before) / (2.0 * cycles);
}

// 8,411 allocations per view change while every transport frame allocated
// its own cell, 5,408 with recycled cells, 5,287 with shared payloads,
// 5,159 with flat per-peer tables, 2,305 once a view change copies no
// member set (one shared start_change set, pump caches rebuilt into kept
// storage only when they change, heartbeats and server messages wrapped
// once), 637 once views, sets and cuts are flat shared bodies and a view
// install reuses its buffers (DESIGN.md §11.5), and 370 once a membership
// round builds flat bodies from kept buffers and clients that share a base
// share one view delta. The budget is the exact count.
TEST(AllocBudgetChurn, ViewChangeStaysUnderBudget) {
  const double per_change = allocs_per_view_change(16, 4);
  RecordProperty("allocs_per_view_change", std::to_string(per_change));
  EXPECT_LE(per_change, alloc_recipes::kChurnPerViewChange);
}

// A view change among n members moves O(n^2) sync, view and ack messages,
// so its events grow about 16x from n = 8 to n = 32. Work per event that is
// O(n) (a view or cut copied per message) grows allocations far faster.
// Measured: 1,419 at n = 8 and 20,437 at n = 32 (14.4x) before shared
// messages, 1,384 and 19,969 (14.4x) with flat per-peer tables, 705 and
// 8,545 (12.1x) once a view change copies no member set, 279 and 1,631.1
// (5.85x) once a view change allocates O(1) per end-point, and 176 and
// 810.1 (4.60x) once a membership round allocates per server: what grows
// now is the per-message traffic, not the bookkeeping.
TEST(AllocBudgetChurn, AllocationsPerViewChangeGrowWithTheEventCount) {
  const double at8 = allocs_per_view_change(8, 4);
  const double at32 = allocs_per_view_change(32, 4);
  RecordProperty("allocs_per_view_change_n8", std::to_string(at8));
  RecordProperty("allocs_per_view_change_n32", std::to_string(at32));
  EXPECT_LE(at32, 6.1 * at8) << at8 << " at n=8, " << at32 << " at n=32";
}

/// Counts the heap allocations of one membership round at a server: from
/// the server's "suspicion" phase marker (DESIGN.md §10), which opens the
/// round its failure detector's change starts, to the end of the simulated
/// event that raised it, closed by a zero-delay event scheduled at the
/// marker. That span is update_reliable_set, reconfigure and try_form (and
/// any event already queued for the same instant, which the exact pin
/// below would show).
class RoundMeter : public spec::TraceSink {
 public:
  explicit RoundMeter(sim::Simulator& sim) : sim_(sim) {}

  void on_event(const spec::Event& event) override {
    const auto* phase = std::get_if<spec::MbrPhase>(&event.body);
    if (phase == nullptr || phase->phase != "suspicion" || armed_) return;
    armed_ = true;
    before_ = allocations();
    sim_.schedule(0, [this]() { spent = allocations() - before_; });
  }

  std::optional<std::uint64_t> spent;

 private:
  sim::Simulator& sim_;
  bool armed_ = false;
  std::uint64_t before_ = 0;
};

/// Allocations of the round server 0 runs when one of its local clients
/// leaves, in alloc_recipes::churn's deployment of n clients on n/4 servers
/// (4 local clients each), converged and warmed.
std::uint64_t allocs_per_round(int n) {
  app::WorldConfig wc;
  wc.num_clients = n;
  wc.num_servers = n / 4;
  wc.attach_checkers = false;
  wc.record_trace = false;
  app::World w(wc);
  spec::TraceBus bus;
  bus.set_lifecycle(true);
  RoundMeter meter(w.sim());
  bus.subscribe(meter);
  w.start();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  w.run_for(500 * sim::kMillisecond);
  w.server(0).set_trace(&bus);
  w.process(0).leave();
  w.run_for(100 * sim::kMillisecond);
  w.server(0).set_trace(nullptr);
  EXPECT_TRUE(meter.spent.has_value()) << "no round at n = " << n;
  return meter.spent.value_or(0);
}

// A membership round allocates per server, not per member (DESIGN.md
// §11.5). Its sets are flat bodies built from kept buffers: the proposal's
// local_alive and cids and the estimate, one allocation each (the
// participants keep their body while the servers stand still). Each of the
// three surviving local clients' start_change and the one proposal to every
// peer is a payload: its cell and its std::any's copy. 3 + 2 x 4 = 11, in a
// group of 16 or of 64. While the round built std::set and std::map trees
// it cost 54 and 150.
TEST(AllocBudgetMembership, RoundCostsTheSameAtAnySize) {
  EXPECT_EQ(allocs_per_round(16), 11u);
  EXPECT_EQ(allocs_per_round(64), allocs_per_round(16));
}

// Views are shared immutable values (DESIGN.md §11.5), so the checkers, the
// recorder, the membership layer and the endpoints hold views without
// copying trees. On the first seed of perfbench's stress pool this seed
// measured 7,536 allocations while every copy of a View copied its
// member set and startId map, 4,686 with shared views, 4,354 once
// transport frames travel in recycled cells, 4,340 with shared payloads
// (its payloads fit in a std::string with no allocation, so a shared body
// gains little there), 4,224 with flat per-peer tables, 2,587 once
// heartbeats are wrapped once and a view change copies no member set, and
// 2,410 once the VS_RFIFO and SELF checkers stop re-running WV_RFIFO,
// 2,407 once the trace bus holds the checker bundle as one sink instead of
// six (one vector growth instead of four), 1,773 once views, sets and
// cuts are flat shared bodies, a view install reuses its buffers and the
// checkers share one initial view per process, and 1,485 once a
// membership round builds flat bodies from kept buffers. The budget is the
// exact count.
TEST(AllocBudgetStress, CheckedSeedStaysUnderBudget) {
  const std::uint64_t before = allocations();
  EXPECT_TRUE(alloc_recipes::stress_seed(alloc_recipes::kStressSeed));
  const std::uint64_t allocs = allocations() - before;
  RecordProperty("allocs_per_seed", std::to_string(allocs));
  EXPECT_LE(allocs, alloc_recipes::kStressSeedAllocations);
}

}  // namespace
}  // namespace vsgc
