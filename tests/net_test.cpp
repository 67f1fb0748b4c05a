// Unit tests for the unreliable datagram network model.
#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "spec/co_rfifo_checker.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc::net {
namespace {

struct Harness {
  explicit Harness(Network::Config cfg = {}, std::uint64_t seed = 1)
      : network(sim, Rng(seed), cfg) {}

  void attach_collector(NodeId n) {
    network.attach(n, [this, n](NodeId from, const std::any& payload) {
      received.push_back({n, from, std::any_cast<std::string>(payload),
                          sim.now()});
    });
  }

  struct Rx {
    NodeId at;
    NodeId from;
    std::string payload;
    sim::Time when;
  };

  sim::Simulator sim;
  Network network;
  std::vector<Rx> received;
};

TEST(Network, DeliversWithBaseLatency) {
  Network::Config cfg;
  cfg.base_latency = 5 * sim::kMillisecond;
  cfg.jitter = 0;
  Harness h(cfg);
  h.attach_collector(NodeId{2});
  h.network.send(NodeId{1}, NodeId{2}, std::string("x"), 1);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0].when, 5 * sim::kMillisecond);
  EXPECT_EQ(h.received[0].from, NodeId{1});
}

TEST(Network, FifoLinksNeverReorder) {
  Network::Config cfg;
  cfg.jitter = 900;  // plenty of jitter to tempt reordering
  Harness h(cfg, 99);
  h.attach_collector(NodeId{2});
  for (int i = 0; i < 50; ++i) {
    h.network.send(NodeId{1}, NodeId{2}, std::to_string(i), 1);
  }
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(h.received[static_cast<std::size_t>(i)].payload,
              std::to_string(i));
  }
}

TEST(Network, DropProbabilityLosesSomePackets) {
  Network::Config cfg;
  cfg.drop_probability = 0.5;
  Harness h(cfg, 7);
  h.attach_collector(NodeId{2});
  for (int i = 0; i < 200; ++i) {
    h.network.send(NodeId{1}, NodeId{2}, std::string("m"), 1);
  }
  h.sim.run_to_quiescence();
  EXPECT_GT(h.received.size(), 50u);
  EXPECT_LT(h.received.size(), 150u);
  EXPECT_EQ(h.network.stats().packets_dropped + h.received.size(), 200u);
}

TEST(Network, DownNodeReceivesNothing) {
  Harness h;
  h.attach_collector(NodeId{2});
  h.network.set_node_up(NodeId{2}, false);
  h.network.send(NodeId{1}, NodeId{2}, std::string("x"), 1);
  h.sim.run_to_quiescence();
  EXPECT_TRUE(h.received.empty());
  h.network.set_node_up(NodeId{2}, true);
  h.network.send(NodeId{1}, NodeId{2}, std::string("y"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.received.size(), 1u);
}

TEST(Network, CrashMidFlightDropsPacket) {
  Harness h;
  h.attach_collector(NodeId{2});
  h.network.send(NodeId{1}, NodeId{2}, std::string("x"), 1);
  // Node goes down while the packet is in flight.
  h.network.set_node_up(NodeId{2}, false);
  h.sim.run_to_quiescence();
  EXPECT_TRUE(h.received.empty());
}

TEST(Network, LinkFailureIsSymmetricAndRepairable) {
  Harness h;
  h.attach_collector(NodeId{1});
  h.attach_collector(NodeId{2});
  h.network.set_link_up(NodeId{1}, NodeId{2}, false);
  EXPECT_FALSE(h.network.link_up(NodeId{1}, NodeId{2}));
  EXPECT_FALSE(h.network.link_up(NodeId{2}, NodeId{1}));
  h.network.send(NodeId{1}, NodeId{2}, std::string("a"), 1);
  h.network.send(NodeId{2}, NodeId{1}, std::string("b"), 1);
  h.sim.run_to_quiescence();
  EXPECT_TRUE(h.received.empty());
  h.network.set_link_up(NodeId{1}, NodeId{2}, true);
  h.network.send(NodeId{1}, NodeId{2}, std::string("c"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.received.size(), 1u);
}

TEST(Network, PartitionSeparatesComponents) {
  Harness h;
  for (std::uint32_t n = 1; n <= 4; ++n) h.attach_collector(NodeId{n});
  h.network.partition({{NodeId{1}, NodeId{2}}, {NodeId{3}, NodeId{4}}});
  EXPECT_TRUE(h.network.link_up(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(h.network.link_up(NodeId{3}, NodeId{4}));
  EXPECT_FALSE(h.network.link_up(NodeId{1}, NodeId{3}));
  h.network.send(NodeId{1}, NodeId{3}, std::string("x"), 1);
  h.network.send(NodeId{1}, NodeId{2}, std::string("y"), 1);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0].payload, "y");
}

TEST(Network, UnassignedNodesReachEveryComponent) {
  Harness h;
  h.attach_collector(NodeId{1});
  h.attach_collector(NodeId{3});
  h.network.partition({{NodeId{1}}, {NodeId{3}}});
  // Node 9 is in no component: it talks to both sides.
  h.network.send(NodeId{9}, NodeId{1}, std::string("a"), 1);
  h.network.send(NodeId{9}, NodeId{3}, std::string("b"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.received.size(), 2u);
}

TEST(Network, HealRestoresFullConnectivity) {
  Harness h;
  h.attach_collector(NodeId{3});
  h.network.partition({{NodeId{1}}, {NodeId{3}}});
  h.network.set_link_up(NodeId{1}, NodeId{3}, false);
  h.network.heal();
  EXPECT_TRUE(h.network.link_up(NodeId{1}, NodeId{3}));
  h.network.send(NodeId{1}, NodeId{3}, std::string("x"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.received.size(), 1u);
}

TEST(Network, StatsAccounting) {
  Network::Config cfg;
  Harness h(cfg);
  h.attach_collector(NodeId{2});
  h.network.send(NodeId{1}, NodeId{2}, std::string("x"), 100);
  h.network.send(NodeId{1}, NodeId{5}, std::string("y"), 50);  // no handler
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.network.stats().packets_sent, 2u);
  EXPECT_EQ(h.network.stats().packets_delivered, 1u);
  EXPECT_EQ(h.network.stats().packets_dropped, 1u);
  EXPECT_EQ(h.network.stats().bytes_sent, 150u);
}

TEST(Network, OnewayLinkFailureIsAsymmetric) {
  Harness h;
  h.attach_collector(NodeId{1});
  h.attach_collector(NodeId{2});
  h.network.set_oneway_link_up(NodeId{1}, NodeId{2}, false);
  // link_up() reports the symmetric layer only; can_send() folds in the
  // directional state.
  EXPECT_TRUE(h.network.link_up(NodeId{1}, NodeId{2}));
  EXPECT_FALSE(h.network.can_send(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(h.network.can_send(NodeId{2}, NodeId{1}))
      << "the reverse direction must stay up";
  h.network.send(NodeId{1}, NodeId{2}, std::string("lost"), 1);
  h.network.send(NodeId{2}, NodeId{1}, std::string("through"), 1);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0].payload, "through");
  h.network.set_oneway_link_up(NodeId{1}, NodeId{2}, true);
  h.network.send(NodeId{1}, NodeId{2}, std::string("again"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.received.size(), 2u);
}

// A CO_RFIFO stream driven across a one-way outage interleaved with drop
// spikes and heal(): the transport must mask every loss pattern the network
// can produce, and the spec checker asserts FIFO/no-gap/no-duplicate on each
// delivery throughout.
TEST(Network, OnewayOutageWithDropSpikesKeepsCoRfifoClean) {
  struct Stream {
    Stream() : network(sim, Rng(31), {}),
               a(sim, network, NodeId{1}),
               b(sim, network, NodeId{2}) {
      a.set_reliable({NodeId{2}});
      checker.note_reliable(NodeId{1}, {NodeId{1}, NodeId{2}});
      b.set_deliver_handler([this](NodeId from, const std::any& payload) {
        const auto uid = std::any_cast<std::uint64_t>(payload);
        checker.note_deliver(from, NodeId{2}, uid);
        received.push_back(uid);
      });
    }
    void send(std::uint64_t uid) {
      checker.note_send(NodeId{1}, {NodeId{2}}, uid);
      a.send({NodeId{2}}, uid, 8);
    }
    sim::Simulator sim;
    Network network;
    transport::CoRfifoTransport a;
    transport::CoRfifoTransport b;
    spec::CoRfifoChecker checker;
    std::vector<std::uint64_t> received;
  };

  Stream h;
  for (std::uint64_t i = 1; i <= 3; ++i) h.send(i);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 3u);

  // Data direction goes down one-way; acks (2 -> 1) still flow. Traffic sent
  // now is stranded and must be retransmitted later.
  h.network.set_oneway_link_up(NodeId{1}, NodeId{2}, false);
  for (std::uint64_t i = 4; i <= 6; ++i) h.send(i);
  h.sim.run_until(h.sim.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(h.received.size(), 3u) << "nothing crosses the downed direction";

  // Drop spike lands while the one-way outage holds, then the link comes
  // back up with the spike still active: retransmission grinds through it.
  h.network.set_drop_probability(0.4);
  h.send(7);
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.network.set_oneway_link_up(NodeId{1}, NodeId{2}, true);
  h.sim.run_until(h.sim.now() + 500 * sim::kMillisecond);

  // Second spike cycle ending in a full heal() with the spike lifted.
  h.network.set_oneway_link_up(NodeId{1}, NodeId{2}, false);
  h.send(8);
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.network.heal();
  h.network.set_drop_probability(0.0);
  h.send(9);
  h.sim.run_to_quiescence();

  EXPECT_EQ(h.received,
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}))
      << "every message arrives exactly once, in order, despite the outages";
  EXPECT_GE(h.a.stats().retransmissions, 3u)
      << "the stranded messages had to be retransmitted";
}

TEST(Network, DetachPrunesPerLinkTracking) {
  // Regression: detach used to leave the node's last_arrival_ FIFO-tracking
  // entries behind, so attach/detach churn (process crash/recovery cycles)
  // grew the map without bound. Every cycle must end where it started.
  Harness h;
  h.attach_collector(NodeId{1});
  std::size_t after_first_cycle = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    const NodeId peer{2 + static_cast<std::uint32_t>(cycle)};
    h.attach_collector(peer);
    h.network.send(NodeId{1}, peer, Payload(std::string("ping")), 4);
    h.network.send(peer, NodeId{1}, Payload(std::string("pong")), 4);
    h.sim.run_to_quiescence();
    EXPECT_GE(h.network.tracked_links(), 2u) << "cycle " << cycle;
    h.network.detach(peer);
    if (cycle == 0) {
      after_first_cycle = h.network.tracked_links();
    } else {
      EXPECT_EQ(h.network.tracked_links(), after_first_cycle)
          << "tracking grew across churn, cycle " << cycle;
    }
  }
}

TEST(Network, PayloadSharedAcrossFanOut) {
  // One Payload handle delivered to several receivers must expose the same
  // underlying std::any to each handler (no per-recipient copies).
  Harness h;
  std::vector<const std::any*> seen;
  for (std::uint32_t n = 1; n <= 3; ++n) {
    h.network.attach(NodeId{n}, [&seen](NodeId, const std::any& payload) {
      seen.push_back(&payload);
    });
  }
  const Payload shared(std::string("broadcast"));
  for (std::uint32_t n = 1; n <= 3; ++n) {
    h.network.send(NodeId{9}, NodeId{n}, shared, 9);
  }
  h.sim.run_to_quiescence();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[1], seen[2]);
}

TEST(Network, ServerAndClientAddressing) {
  EXPECT_FALSE(is_server_node(node_of(ProcessId{5})));
  EXPECT_TRUE(is_server_node(node_of(ServerId{0})));
  EXPECT_EQ(process_of(node_of(ProcessId{5})), ProcessId{5});
  EXPECT_EQ(server_of(node_of(ServerId{3})), ServerId{3});
  EXPECT_NE(node_of(ProcessId{0}), node_of(ServerId{0}));
}

}  // namespace
}  // namespace vsgc::net
