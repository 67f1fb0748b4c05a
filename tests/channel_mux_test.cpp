// Tests for ChannelMux (DESIGN.md §13): two logical groups multiplexed over
// one CO_RFIFO session between two real transports — per-group routing,
// dropping of unopened groups, the union reliable set, and crash/recover of
// the shared transport.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "net/network.hpp"
#include "transport/channel_mux.hpp"
#include "util/rng.hpp"

namespace vsgc::transport {
namespace {

constexpr std::uint32_t kGroupA = 1;
constexpr std::uint32_t kGroupB = 2;

struct Delivery {
  int at;  ///< receiving node index
  std::uint32_t group;
  std::uint64_t uid;
  friend bool operator==(const Delivery&, const Delivery&) = default;
};

/// Two nodes, each with one transport shared through a mux.
struct Harness {
  Harness() : network(sim, Rng(1)) {
    for (std::uint32_t i = 1; i <= 2; ++i) {
      transports.push_back(
          std::make_unique<CoRfifoTransport>(sim, network, net::NodeId{i}));
      muxes.push_back(std::make_unique<ChannelMux>(*transports.back()));
    }
  }

  /// Open `group` at node `at`, logging its deliveries into `got`.
  Channel open(int at, std::uint32_t group) {
    return muxes[static_cast<std::size_t>(at)]->open(
        group, [this, at, group](net::NodeId, const std::any& payload) {
          got.push_back({at, group, std::any_cast<std::uint64_t>(payload)});
        });
  }

  CoRfifoTransport& transport(int i) {
    return *transports[static_cast<std::size_t>(i)];
  }

  sim::Simulator sim;
  net::Network network;
  std::vector<std::unique_ptr<CoRfifoTransport>> transports;
  std::vector<std::unique_ptr<ChannelMux>> muxes;
  std::vector<Delivery> got;
};

const net::NodeId kN1{1};
const net::NodeId kN2{2};

/// An ascending node list without duplicates: the form a Channel takes.
using Nodes = std::vector<net::NodeId>;

TEST(ChannelMux, EachGroupReachesOnlyItsOwnHandler) {
  Harness h;
  Channel a = h.open(0, kGroupA);
  Channel b = h.open(0, kGroupB);
  h.open(1, kGroupA);
  h.open(1, kGroupB);
  a.set_reliable(Nodes{kN1, kN2});
  b.set_reliable(Nodes{kN1, kN2});
  a.send(Nodes{kN2}, std::uint64_t{10}, 8);
  b.send(Nodes{kN2}, std::uint64_t{20}, 8);
  a.send(Nodes{kN2}, std::uint64_t{11}, 8);
  h.sim.run_to_quiescence();
  // One session carries both groups; its FIFO order holds per group too.
  EXPECT_EQ(h.got, (std::vector<Delivery>{
                       {1, kGroupA, 10}, {1, kGroupB, 20}, {1, kGroupA, 11}}));
}

TEST(ChannelMux, TrafficForUnopenedGroupIsDropped) {
  Harness h;
  Channel a = h.open(0, kGroupA);
  Channel b = h.open(0, kGroupB);
  h.open(1, kGroupA);  // node 2 never joins group B
  a.set_reliable(Nodes{kN1, kN2});
  b.set_reliable(Nodes{kN1, kN2});
  b.send(Nodes{kN2}, std::uint64_t{20}, 8);
  // Untagged (group-0) traffic has no channel under a mux either.
  Channel(h.transport(0)).send(Nodes{kN2}, std::uint64_t{30}, 8);
  a.send(Nodes{kN2}, std::uint64_t{10}, 8);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.got, (std::vector<Delivery>{{1, kGroupA, 10}}));
}

TEST(ChannelMux, ReliableSetIsUnionOfGroupSlices) {
  Harness h;
  Channel a = h.open(0, kGroupA);
  Channel b = h.open(0, kGroupB);
  a.set_reliable(Nodes{kN1});
  b.set_reliable(Nodes{kN2});
  EXPECT_EQ(h.transport(0).reliable_set(), (std::set<net::NodeId>{kN1, kN2}));

  // Shrinking A's slice keeps kN2: group B still needs it.
  a.set_reliable(Nodes{kN1, kN2});
  a.set_reliable(Nodes{kN1});
  EXPECT_EQ(h.muxes[0]->group_reliable(kGroupA), (std::set<net::NodeId>{kN1}));
  EXPECT_EQ(h.transport(0).reliable_set(), (std::set<net::NodeId>{kN1, kN2}));

  // Once no group needs kN2 the session stops being reliable toward it.
  b.set_reliable(Nodes{});
  EXPECT_EQ(h.transport(0).reliable_set(), (std::set<net::NodeId>{kN1}));
}

TEST(ChannelMux, ReliableMatchesOnlyWhenSessionCoversSlice) {
  Harness h;
  Channel a = h.open(0, kGroupA);
  const Nodes both{kN1, kN2};
  EXPECT_FALSE(a.reliable_matches(both)) << "slice not set yet";
  a.set_reliable(both);
  EXPECT_TRUE(a.reliable_matches(both));
  EXPECT_FALSE(a.reliable_matches(Nodes{kN1})) << "slice differs";

  // The session drops kN2 behind the mux's back: the slice still reads
  // {kN1, kN2}, but the channel is no longer reliable toward all of it.
  h.transport(0).set_reliable({kN1});
  EXPECT_FALSE(a.reliable_matches(both));
  a.set_reliable(both);
  EXPECT_TRUE(a.reliable_matches(both));
}

TEST(ChannelMux, GroupsRouteOnceAndInOrderAfterCrashRecover) {
  Harness h;
  const Nodes both{kN1, kN2};
  Channel a = h.open(0, kGroupA);
  Channel b = h.open(0, kGroupB);
  Channel a2 = h.open(1, kGroupA);
  Channel b2 = h.open(1, kGroupB);
  for (Channel* ch : {&a, &b, &a2, &b2}) ch->set_reliable(both);
  a.send(Nodes{kN2}, std::uint64_t{1}, 8);
  b.send(Nodes{kN2}, std::uint64_t{2}, 8);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.got.size(), 2u);
  h.got.clear();

  // Crash node 1's transport with traffic in flight, then recover it. The
  // crash wipes the session (its reliable set falls back to {self}); the
  // mux keeps both groups' slices and handlers.
  a.send(Nodes{kN2}, std::uint64_t{3}, 8);
  h.transport(0).crash();
  b.send(Nodes{kN2}, std::uint64_t{4}, 8);  // dropped: the transport is down
  h.sim.run_to_quiescence();
  h.transport(0).recover();
  EXPECT_FALSE(a.reliable_matches(both)) << "session lost kN2 in the crash";
  EXPECT_FALSE(b.reliable_matches(both));
  a.set_reliable(both);
  b.set_reliable(both);

  h.got.clear();  // whatever of the pre-crash stream got through
  a.send(Nodes{kN2}, std::uint64_t{10}, 8);
  b.send(Nodes{kN2}, std::uint64_t{20}, 8);
  a.send(Nodes{kN2}, std::uint64_t{11}, 8);
  b.send(Nodes{kN2}, std::uint64_t{21}, 8);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.got, (std::vector<Delivery>{{1, kGroupA, 10},
                                          {1, kGroupB, 20},
                                          {1, kGroupA, 11},
                                          {1, kGroupB, 21}}));
}

TEST(ChannelMux, SliceSetWhileCrashedNeedsReassertAfterRecovery) {
  Harness h;
  const Nodes both{kN1, kN2};
  Channel a = h.open(0, kGroupA);
  Channel b = h.open(0, kGroupB);
  h.transport(0).crash();
  // The mux records the slice, but the crashed session ignores it.
  a.set_reliable(both);
  EXPECT_EQ(h.muxes[0]->group_reliable(kGroupA),
            (std::set<net::NodeId>{kN1, kN2}));
  EXPECT_FALSE(a.reliable_matches(both));
  h.transport(0).recover();
  EXPECT_FALSE(a.reliable_matches(both))
      << "recovery must not resurrect a slice the session never applied";
  EXPECT_FALSE(b.reliable_matches(both)) << "B never set a slice";
  a.set_reliable(both);
  EXPECT_TRUE(a.reliable_matches(both));
  EXPECT_EQ(h.transport(0).reliable_set(), (std::set<net::NodeId>{kN1, kN2}));
}

}  // namespace
}  // namespace vsgc::transport
