// Unit tests for the unreliable datagram network model.
#include <gtest/gtest.h>

#include <any>
#include <functional>
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

// --- Flat tables and the fault-free fast path (DESIGN.md §11.6) ----------

TEST(NetworkFaults, EachFaultKindDropsWhileSetAndOnlyThen) {
  // Each fault kind cuts the 1 -> 2 link while 3 -> 4 stays clear. send()
  // skips every check only while no fault of any kind is set, so each kind
  // must drop while it is set, and delivery must resume once it is lifted.
  struct Kind {
    const char* name;
    std::function<void(Network&)> set;
    std::function<void(Network&)> lift;
  };
  const auto heal = [](Network& n) { n.heal(); };
  const std::vector<Kind> kinds = {
      {"node down", [](Network& n) { n.set_node_up(NodeId{2}, false); },
       [](Network& n) { n.set_node_up(NodeId{2}, true); }},
      {"link down",
       [](Network& n) { n.set_link_up(NodeId{1}, NodeId{2}, false); }, heal},
      {"one-way",
       [](Network& n) { n.set_oneway_link_up(NodeId{1}, NodeId{2}, false); },
       heal},
      {"isolate", [](Network& n) { n.isolate({NodeId{2}}); }, heal},
      {"partition",
       [](Network& n) {
         n.partition({{NodeId{1}, NodeId{3}, NodeId{4}}, {NodeId{2}}});
       },
       heal},
  };
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.name);
    Harness h;
    for (std::uint32_t n = 1; n <= 4; ++n) h.attach_collector(NodeId{n});
    EXPECT_TRUE(h.network.fault_free());
    kind.set(h.network);
    EXPECT_FALSE(h.network.fault_free());
    h.network.send(NodeId{1}, NodeId{2}, std::string("cut"), 1);
    h.network.send(NodeId{3}, NodeId{4}, std::string("clear"), 1);
    h.sim.run_to_quiescence();
    ASSERT_EQ(h.received.size(), 1u);
    EXPECT_EQ(h.received[0].payload, "clear");
    EXPECT_EQ(h.network.stats().packets_dropped, 1u);
    kind.lift(h.network);
    EXPECT_TRUE(h.network.fault_free());
    h.network.send(NodeId{1}, NodeId{2}, std::string("back"), 1);
    h.sim.run_to_quiescence();
    ASSERT_EQ(h.received.size(), 2u);
    EXPECT_EQ(h.received[1].payload, "back");
    EXPECT_EQ(h.received[1].at, NodeId{2});
  }
}

TEST(NetworkFaults, AfterHealArrivalsMatchANetworkThatNeverFaulted) {
  // A packet a fault drops draws no jitter and sets no FIFO bound. So once
  // healed, a network must schedule every packet exactly when a twin on the
  // same seed that never faulted does.
  Network::Config cfg;
  cfg.jitter = 700;
  Harness faulted(cfg, 7);
  Harness clean(cfg, 7);
  for (Harness* h : {&faulted, &clean}) {
    for (std::uint32_t n = 1; n <= 3; ++n) h->attach_collector(NodeId{n});
  }
  Network& net = faulted.network;
  net.partition({{NodeId{1}}, {NodeId{2}, NodeId{3}}});
  net.set_link_up(NodeId{2}, NodeId{3}, false);
  net.set_oneway_link_up(NodeId{3}, NodeId{2}, false);
  net.isolate({NodeId{3}});
  for (int i = 0; i < 12; ++i) {
    const NodeId from{1 + static_cast<std::uint32_t>(i % 3)};
    const NodeId to{1 + static_cast<std::uint32_t>((i + 1) % 3)};
    net.send(from, to, std::string("lost"), 1);
  }
  EXPECT_EQ(net.stats().packets_dropped, 12u);
  EXPECT_EQ(net.tracked_links(), 0u) << "a dropped packet bounds no link";
  net.heal();
  for (Harness* h : {&faulted, &clean}) {
    h->sim.run_until(3 * sim::kMillisecond);
    for (int i = 0; i < 60; ++i) {
      const NodeId from{1 + static_cast<std::uint32_t>(i % 3)};
      const NodeId to{1 + static_cast<std::uint32_t>((i * 7 + 1) % 3)};
      h->network.send(from, to, std::to_string(i), 1);
    }
    h->sim.run_to_quiescence();
  }
  ASSERT_EQ(faulted.received.size(), clean.received.size());
  for (std::size_t i = 0; i < clean.received.size(); ++i) {
    EXPECT_EQ(faulted.received[i].at, clean.received[i].at) << i;
    EXPECT_EQ(faulted.received[i].from, clean.received[i].from) << i;
    EXPECT_EQ(faulted.received[i].payload, clean.received[i].payload) << i;
    EXPECT_EQ(faulted.received[i].when, clean.received[i].when) << i;
  }
}

TEST(Network, PacketInFlightReachesTheHandlerAttachedAtArrival) {
  // The handler is found when the packet arrives: a node that detaches and
  // re-attaches while a packet is in flight gets it in the new handler, and
  // a node that stays detached drops it.
  Harness h;
  std::vector<std::string> before, after;
  const auto collect = [](std::vector<std::string>& into) {
    return [&into](NodeId, const std::any& p) {
      into.push_back(std::any_cast<std::string>(p));
    };
  };
  h.network.attach(NodeId{2}, collect(before));
  h.network.send(NodeId{1}, NodeId{2}, std::string("x"), 1);
  h.network.detach(NodeId{2});
  h.network.attach(NodeId{2}, collect(after));
  h.sim.run_to_quiescence();
  EXPECT_TRUE(before.empty());
  EXPECT_EQ(after, std::vector<std::string>{"x"});

  h.network.send(NodeId{1}, NodeId{2}, std::string("y"), 1);
  h.network.detach(NodeId{2});
  h.sim.run_to_quiescence();
  EXPECT_EQ(after.size(), 1u);
  EXPECT_EQ(h.network.stats().packets_dropped, 1u);
}

TEST(Network, HandlerMayAttachNodesDuringItsOwnCall) {
  // Attaching grows the handler table while the calling handler runs. Its
  // captures are one pointer, small enough for std::function to keep inline,
  // so they would move with the table if the handler did; they must stay
  // where they were (ASan checks this in ci.sh).
  struct Ctx {
    Harness* h;
    std::uint32_t next = 10;
    std::vector<std::string> log;
  };
  Harness h;
  Ctx ctx{&h, 10, {}};
  h.network.attach(NodeId{1}, [c = &ctx](NodeId, const std::any& p) {
    for (int k = 0; k < 40; ++k) c->h->attach_collector(NodeId{c->next++});
    c->log.push_back(std::any_cast<std::string>(p));
  });
  h.network.send(NodeId{2}, NodeId{1}, std::string("grow"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(ctx.log, std::vector<std::string>{"grow"});
  EXPECT_EQ(ctx.next, 50u);
  h.network.send(NodeId{1}, NodeId{49}, std::string("new"), 1);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0].at, NodeId{49});
}

}  // namespace
}  // namespace vsgc::net
