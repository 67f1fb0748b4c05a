// Tests for the client-server membership service against the MBRSHP spec
// (Figure 2): view formation, failure detection, partitions, merges, and the
// start_change protocol. A MbrshpChecker validates every notification each
// client receives.
#include <gtest/gtest.h>

#include <any>
#include <map>
#include <memory>
#include <vector>

#include "membership/interface.hpp"
#include "membership/membership_client.hpp"
#include "membership/membership_server.hpp"
#include "net/network.hpp"
#include "spec/events.hpp"
#include "spec/mbrshp_checker.hpp"
#include "util/rng.hpp"

namespace vsgc::membership {
namespace {

/// Minimal listener recording what the membership service tells a client,
/// and forwarding to the spec checker via a trace bus.
class RecordingListener : public Listener {
 public:
  RecordingListener(ProcessId self, spec::TraceBus& bus, sim::Simulator& sim)
      : self_(self), bus_(bus), sim_(sim) {}

  void on_start_change(StartChangeId cid, const ProcessSet& set) override {
    start_changes.push_back({cid, set});
    bus_.emit(sim_.now(), spec::MbrStartChange{self_, cid, set});
  }

  void on_view(const View& v) override {
    views.push_back(v);
    bus_.emit(sim_.now(), spec::MbrView{self_, v});
  }

  std::vector<std::pair<StartChangeId, ProcessSet>> start_changes;
  std::vector<View> views;

 private:
  ProcessId self_;
  spec::TraceBus& bus_;
  sim::Simulator& sim_;
};

struct Harness {
  Harness(int num_servers, int num_clients, std::uint64_t seed = 1)
      : network(sim, Rng(seed)) {
    bus.subscribe(checker);
    std::set<ServerId> server_ids;
    for (int s = 0; s < num_servers; ++s) {
      server_ids.insert(ServerId{static_cast<std::uint32_t>(s)});
    }
    for (ServerId s : server_ids) {
      servers.push_back(
          std::make_unique<MembershipServer>(sim, network, s, server_ids));
    }
    for (int i = 0; i < num_clients; ++i) {
      const ProcessId p{static_cast<std::uint32_t>(i + 1)};
      const ServerId s{static_cast<std::uint32_t>(i % num_servers)};
      transports.push_back(std::make_unique<transport::CoRfifoTransport>(
          sim, network, net::node_of(p)));
      clients.push_back(
          std::make_unique<MembershipClient>(sim, *transports.back(), p, s));
      listeners.push_back(std::make_unique<RecordingListener>(p, bus, sim));
      clients.back()->add_listener(*listeners.back());
      auto* mc = clients.back().get();
      transports.back()->set_deliver_handler(
          [mc](net::NodeId from, const std::any& payload) {
            mc->handle(from, payload);
          });
      servers[s.value]->add_client(p, /*initially_alive=*/true);
    }
  }

  void start() {
    for (auto& s : servers) s->start();
    for (auto& c : clients) c->start();
  }

  void run(sim::Time d) { sim.run_until(sim.now() + d); }

  const View* last_view(int i) const {
    const auto& v = listeners[static_cast<std::size_t>(i)]->views;
    return v.empty() ? nullptr : &v.back();
  }

  sim::Simulator sim;
  net::Network network;
  spec::TraceBus bus;
  spec::MbrshpChecker checker;
  std::vector<std::unique_ptr<MembershipServer>> servers;
  std::vector<std::unique_ptr<transport::CoRfifoTransport>> transports;
  std::vector<std::unique_ptr<MembershipClient>> clients;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
};

TEST(Membership, SingleServerFormsFullView) {
  Harness h(1, 3);
  h.start();
  h.run(2 * sim::kSecond);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(h.last_view(i), nullptr) << "client " << i;
    EXPECT_EQ(h.last_view(i)->members().size(), 3u);
  }
  // All clients must receive the *identical* view (same startId map).
  EXPECT_EQ(*h.last_view(0), *h.last_view(1));
  EXPECT_EQ(*h.last_view(1), *h.last_view(2));
}

TEST(Membership, StartChangePrecedesEveryView) {
  Harness h(1, 2);
  h.start();
  h.run(2 * sim::kSecond);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(h.listeners[static_cast<std::size_t>(i)]->start_changes.empty());
    // Checker already enforced ordering; sanity: cids in view match notices.
    const View* v = h.last_view(i);
    ASSERT_NE(v, nullptr);
    const auto& scs = h.listeners[static_cast<std::size_t>(i)]->start_changes;
    EXPECT_EQ(v->start_id_of(h.clients[static_cast<std::size_t>(i)]->self()),
              scs.back().first);
  }
}

TEST(Membership, TwoServersAgreeOnOneView) {
  Harness h(2, 4);
  h.start();
  h.run(3 * sim::kSecond);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(h.last_view(i), nullptr) << "client " << i;
    EXPECT_EQ(h.last_view(i)->members().size(), 4u) << "client " << i;
  }
  EXPECT_EQ(*h.last_view(0), *h.last_view(1));
  EXPECT_EQ(*h.last_view(0), *h.last_view(2));
  EXPECT_EQ(*h.last_view(0), *h.last_view(3));
}

TEST(Membership, CrashedClientIsExcluded) {
  Harness h(1, 3);
  h.start();
  h.run(2 * sim::kSecond);
  // Client 2 dies: its heartbeats stop; the FD excludes it.
  h.clients[2]->crash();
  h.transports[2]->crash();
  h.run(3 * sim::kSecond);
  for (int i = 0; i < 2; ++i) {
    ASSERT_NE(h.last_view(i), nullptr);
    EXPECT_EQ(h.last_view(i)->members().size(), 2u) << "client " << i;
    EXPECT_FALSE(h.last_view(i)->contains(ProcessId{3}));
  }
}

TEST(Membership, RecoveredClientRejoins) {
  Harness h(1, 3);
  h.start();
  h.run(2 * sim::kSecond);
  h.clients[2]->crash();
  h.transports[2]->crash();
  h.run(3 * sim::kSecond);
  h.transports[2]->recover();
  h.clients[2]->recover();
  h.run(3 * sim::kSecond);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(h.last_view(i), nullptr);
    EXPECT_EQ(h.last_view(i)->members().size(), 3u) << "client " << i;
  }
}

TEST(Membership, ServerPartitionFormsDisjointViews) {
  Harness h(2, 4);
  h.start();
  h.run(3 * sim::kSecond);
  // Partition: server 0 + its clients (1, 3) vs server 1 + its (2, 4).
  h.network.partition({{net::node_of(ServerId{0}), net::node_of(ProcessId{1}),
                        net::node_of(ProcessId{3})},
                       {net::node_of(ServerId{1}), net::node_of(ProcessId{2}),
                        net::node_of(ProcessId{4})}});
  h.run(4 * sim::kSecond);
  ASSERT_NE(h.last_view(0), nullptr);
  ASSERT_NE(h.last_view(1), nullptr);
  EXPECT_EQ(h.last_view(0)->members(),
            (std::set<ProcessId>{ProcessId{1}, ProcessId{3}}));
  EXPECT_EQ(h.last_view(1)->members(),
            (std::set<ProcessId>{ProcessId{2}, ProcessId{4}}));
  // Disjoint concurrent views must carry distinct identifiers.
  EXPECT_NE(h.last_view(0)->id, h.last_view(1)->id);
}

TEST(Membership, HealedPartitionMergesViews) {
  Harness h(2, 4);
  h.start();
  h.run(3 * sim::kSecond);
  h.network.partition({{net::node_of(ServerId{0}), net::node_of(ProcessId{1}),
                        net::node_of(ProcessId{3})},
                       {net::node_of(ServerId{1}), net::node_of(ProcessId{2}),
                        net::node_of(ProcessId{4})}});
  h.run(4 * sim::kSecond);
  h.network.heal();
  h.run(4 * sim::kSecond);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(h.last_view(i), nullptr);
    EXPECT_EQ(h.last_view(i)->members().size(), 4u) << "client " << i;
  }
  EXPECT_EQ(*h.last_view(0), *h.last_view(1));
  EXPECT_EQ(*h.last_view(0), *h.last_view(3));
}

TEST(Membership, LateJoinerIsAdmitted) {
  Harness h(1, 3);
  // Client 3 (index 2) starts late.
  h.servers[0]->start();
  h.clients[0]->start();
  h.clients[1]->start();
  h.run(2 * sim::kSecond);
  ASSERT_NE(h.last_view(0), nullptr);
  EXPECT_EQ(h.last_view(0)->members().size(), 2u);
  h.clients[2]->start();
  h.run(3 * sim::kSecond);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(h.last_view(i), nullptr);
    EXPECT_EQ(h.last_view(i)->members().size(), 3u) << "client " << i;
  }
}

TEST(Membership, StartChangeResentAfterRecoveryIsDropped) {
  // CO_RFIFO's stream reset resends the server's unacked StartChange from
  // the client's previous life under the new incarnation. The client keeps
  // its cid floor across recover(), so it must not deliver it twice (the
  // checker on the bus would throw on the non-increasing cid).
  Harness h(1, 2);
  h.start();
  h.run(2 * sim::kSecond);
  const auto& seen = h.listeners[1]->start_changes;
  ASSERT_FALSE(seen.empty());
  const auto [cid, set] = seen.back();
  const std::size_t before = seen.size();
  h.clients[1]->crash();
  h.transports[1]->crash();
  h.transports[1]->recover();
  h.clients[1]->recover();
  EXPECT_TRUE(h.clients[1]->handle(net::node_of(ServerId{0}),
                                   std::any(wire::StartChange{cid, set})));
  EXPECT_EQ(seen.size(), before);
  h.run(3 * sim::kSecond);
  ASSERT_NE(h.last_view(1), nullptr);
  EXPECT_EQ(h.last_view(1)->members().size(), 2u);
  EXPECT_GT(seen.size(), before) << "the rejoin brings a fresh start_change";
}

TEST(Membership, ViewIdsStrictlyIncreasePerClient) {
  Harness h(1, 3);
  h.start();
  h.run(2 * sim::kSecond);
  h.clients[2]->crash();
  h.transports[2]->crash();
  h.run(3 * sim::kSecond);
  h.transports[2]->recover();
  h.clients[2]->recover();
  h.run(3 * sim::kSecond);
  for (int i = 0; i < 3; ++i) {
    const auto& views = h.listeners[static_cast<std::size_t>(i)]->views;
    for (std::size_t k = 1; k < views.size(); ++k) {
      EXPECT_LT(views[k - 1].id, views[k].id) << "client " << i;
    }
  }
}

// A view takes each member's cid from its server's proposal. A peer's
// proposal whose cids do not name exactly its local_alive is dropped like a
// stale round: the server throws nothing and forms no view from it.
TEST(Membership, ProposalWithoutACidPerMemberIsDropped) {
  Harness h(2, 4);
  h.start();
  h.run(3 * sim::kSecond);
  ASSERT_NE(h.last_view(0), nullptr);
  const std::uint64_t bogus_round = h.servers[0]->last_epoch() + 100;
  wire::Proposal prop;
  prop.from = ServerId{1};
  prop.round = bogus_round;
  prop.local_alive = {ProcessId{2}, ProcessId{4}};
  prop.cids = {{ProcessId{2}, StartChangeId{1000}}};
  prop.participants = {ServerId{0}, ServerId{1}};
  const std::size_t size = codec::wire_size(prop);
  h.servers[1]->transport().send({net::node_of(ServerId{0})},
                                 net::Payload(std::move(prop)), size);
  EXPECT_NO_THROW(h.run(sim::kSecond));
  EXPECT_LT(h.servers[0]->last_epoch(), bogus_round);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(h.last_view(i), nullptr);
    EXPECT_LT(h.last_view(i)->id.epoch, bogus_round) << "client " << i;
    EXPECT_EQ(h.last_view(i)->members().size(), 4u) << "client " << i;
  }
}

// Local clients whose last view sent is one view share one ViewDelta
// (DESIGN.md §13): one body in one payload, which every one of them
// receives. A client whose incarnation changed has no base and gets the
// full view. The server's counters still count per client.
TEST(Membership, ClientsSharingABaseShareOneDelta) {
  Harness h(1, 4);
  h.start();
  h.run(2 * sim::kSecond);
  ASSERT_NE(h.last_view(0), nullptr);

  struct Receipt {
    const std::any* payload = nullptr;  ///< the delivered payload's cell
    bool delta = false;
    std::size_t saved = 0;  ///< full form's bytes minus the delta's
  };
  std::vector<std::vector<Receipt>> got(4);
  for (std::size_t i = 0; i < 4; ++i) {
    h.transports[i]->set_deliver_handler(
        [&h, &got, i](net::NodeId from, const std::any& payload) {
          h.clients[i]->handle(from, payload);
          if (const auto* d = std::any_cast<wire::ViewDelta>(&payload)) {
            const View* v = h.last_view(static_cast<int>(i));
            ASSERT_TRUE(v != nullptr && v->id == d->id) << "client " << i;
            got[i].push_back(
                {&payload, true,
                 codec::wire_size(wire::ViewDelivery{*v}) -
                     codec::wire_size(*d)});
          } else if (std::any_cast<wire::ViewDelivery>(&payload) != nullptr) {
            got[i].push_back({&payload, false, 0});
          }
        });
  }
  const MembershipServer::Stats before = h.servers[0]->stats();

  // Client 4 blips: its new incarnation costs it its delta base.
  h.clients[3]->crash();
  h.transports[3]->crash();
  h.transports[3]->recover();
  h.clients[3]->recover();
  h.run(2 * sim::kSecond);

  for (std::size_t i = 0; i < 4; ++i) ASSERT_FALSE(got[i].empty()) << i;
  EXPECT_TRUE(got[0].front().delta);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(got[i].front().delta) << "client " << i;
    EXPECT_EQ(got[i].front().payload, got[0].front().payload)
        << "client " << i << " got its own delta";
  }
  EXPECT_FALSE(got[3].front().delta);

  std::uint64_t deltas = 0;
  std::uint64_t fulls = 0;
  std::uint64_t saved = 0;
  for (const auto& receipts : got) {
    for (const Receipt& r : receipts) {
      (r.delta ? deltas : fulls) += 1;
      saved += r.saved;
    }
  }
  const MembershipServer::Stats& after = h.servers[0]->stats();
  EXPECT_EQ(after.delta_views_sent - before.delta_views_sent, deltas);
  EXPECT_EQ(after.full_views_sent - before.full_views_sent, fulls);
  EXPECT_EQ(after.view_bytes_saved - before.view_bytes_saved, saved);
}

}  // namespace
}  // namespace vsgc::membership
