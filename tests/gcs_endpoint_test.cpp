// Oracle-driven tests of the GCS end-point stack (Figures 9-11): within-view
// FIFO delivery, virtual synchrony cuts, transitional sets, self delivery,
// blocking, and message forwarding — all with the full checker suite attached.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "app/blocking_client.hpp"
#include "app/oracle_world.hpp"
#include "spec/liveness_checker.hpp"

namespace vsgc {
namespace {

using OracleWorld = app::OracleWorld<>;

TEST(WvRfifo, MessagesDeliveredInSendingView) {
  OracleWorld w(3);
  std::vector<std::vector<std::string>> rx(3);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_deliver([&rx, i](ProcessId from, const gcs::AppMsg& m) {
      rx[static_cast<std::size_t>(i)].push_back(to_string(from) + ":" +
                                                m.payload());
    });
  }
  w.change_view(w.all());
  w.client(0).send("a1");
  w.client(1).send("b1");
  w.client(0).send("a2");
  w.settle();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rx[static_cast<std::size_t>(i)].size(), 3u) << "endpoint " << i;
  }
  w.checkers.finalize();
}

TEST(WvRfifo, PerSenderFifoOrder) {
  OracleWorld w(2);
  std::vector<std::string> rx;
  w.client(1).on_deliver(
      [&rx](ProcessId, const gcs::AppMsg& m) { rx.push_back(m.payload()); });
  w.change_view(w.all());
  for (int i = 0; i < 20; ++i) w.client(0).send("m" + std::to_string(i));
  w.settle();
  ASSERT_EQ(rx.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rx[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  }
}

TEST(WvRfifo, SenderSelfDeliversOwnMessages) {
  OracleWorld w(2);
  int self_rx = 0;
  w.client(0).on_deliver([&](ProcessId from, const gcs::AppMsg&) {
    if (from == w.pid(0)) ++self_rx;
  });
  w.change_view(w.all());
  w.client(0).send("x");
  w.client(0).send("y");
  w.settle();
  EXPECT_EQ(self_rx, 2);
}

// The end-point hands deliver() a copy of the message. A client that sends
// from inside the delivery of its own message grows its lane's buffer, which
// moves the buffer's entries; a reference into the buffer would then read
// freed memory (ASan reports it in the sanitizer build).
TEST(WvRfifo, SendingInsideOwnDeliveryKeepsTheDeliveredMessage) {
  OracleWorld w(2);
  const std::string first(40, 'f');
  std::vector<std::string> self_rx;
  bool burst_sent = false;
  w.client(0).on_deliver([&](ProcessId from, const gcs::AppMsg& m) {
    if (from != w.pid(0)) return;
    if (!burst_sent) {
      burst_sent = true;
      for (int k = 0; k < 64; ++k) {
        w.client(0).send("burst-" + std::to_string(k) +
                         std::string(32, 'b'));
      }
      EXPECT_EQ(m.payload(), first);
      EXPECT_EQ(m.uid, 1u);
      EXPECT_EQ(m.sender, w.pid(0));
    }
    self_rx.push_back(m.payload());
  });
  w.change_view(w.all());
  w.client(0).send(first);
  w.settle();
  ASSERT_EQ(self_rx.size(), 65u);
  EXPECT_EQ(self_rx[0], first);
  EXPECT_EQ(self_rx[64], "burst-63" + std::string(32, 'b'));
  w.checkers.finalize();
}

TEST(WvRfifo, InitialSingletonViewAllowsLocalSends) {
  OracleWorld w(1);
  std::vector<std::string> rx;
  w.client(0).on_deliver(
      [&rx](ProcessId, const gcs::AppMsg& m) { rx.push_back(m.payload()); });
  // No oracle activity at all: the end-point lives in its initial view v_p.
  w.client(0).send("solo");
  w.settle();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0], "solo");
  w.checkers.finalize();
}

TEST(VirtualSynchrony, ViewDeliveredWithFullTransitionalSet) {
  OracleWorld w(3);
  std::map<int, std::set<ProcessId>> t_seen;
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_view([&t_seen, i](const View&,
                                     const std::set<ProcessId>& t) {
      t_seen[i] = t;
    });
  }
  const View v1 = w.change_view(w.all());
  // First view: everyone moves from different (initial singleton) views, so
  // each transitional set is just the process itself.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t_seen[i], std::set<ProcessId>{w.pid(i)}) << "endpoint " << i;
  }
  // Second view: all three move together.
  w.change_view(w.all());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t_seen[i], w.all()) << "endpoint " << i;
  }
  w.checkers.finalize();
}

TEST(VirtualSynchrony, AgreedCutUnderMessagesInFlight) {
  OracleWorld w(3);
  std::vector<int> count(3, 0);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_view([&w, i](const View&, const std::set<ProcessId>&) {});
    w.client(i).on_deliver(
        [&count, i](ProcessId, const gcs::AppMsg&) { ++count[static_cast<std::size_t>(i)]; });
  }
  w.change_view(w.all());
  // Send a burst and immediately reconfigure while messages are in flight.
  for (int i = 0; i < 10; ++i) {
    w.client(0).send("a" + std::to_string(i));
    w.client(1).send("b" + std::to_string(i));
  }
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.settle();
  // VS checker verified the cut; Self Delivery + liveness mean everyone got
  // everything here (all processes moved together).
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(count[static_cast<std::size_t>(i)], 20) << "endpoint " << i;
  }
  w.checkers.finalize();
}

TEST(VirtualSynchrony, PartitionYieldsDisjointViewsAndCuts) {
  OracleWorld w(4);
  w.change_view(w.all());
  for (int i = 0; i < 4; ++i) w.client(i).send("pre" + std::to_string(i));
  w.run();
  // The oracle partitions the group: {p1,p2} and {p3,p4}.
  w.network.partition(
      {{net::node_of(w.pid(0)), net::node_of(w.pid(1))},
       {net::node_of(w.pid(2)), net::node_of(w.pid(3))}});
  w.oracle.start_change_to(w.pid(0), w.pids({0, 1}));
  w.oracle.start_change_to(w.pid(1), w.pids({0, 1}));
  w.oracle.start_change_to(w.pid(2), w.pids({2, 3}));
  w.oracle.start_change_to(w.pid(3), w.pids({2, 3}));
  w.run();
  const View va = w.oracle.make_view(w.pids({0, 1}));
  w.oracle.deliver_view_to(w.pid(0), va);
  w.oracle.deliver_view_to(w.pid(1), va);
  const View vb = w.oracle.make_view(w.pids({2, 3}));
  w.oracle.deliver_view_to(w.pid(2), vb);
  w.oracle.deliver_view_to(w.pid(3), vb);
  w.run();
  EXPECT_EQ(w.ep(0).current_view().members(), w.pids({0, 1}));
  EXPECT_EQ(w.ep(2).current_view().members(), w.pids({2, 3}));
  w.checkers.finalize();
}

TEST(SelfDelivery, OwnMessagesDeliveredBeforeViewChange) {
  OracleWorld w(3);
  std::vector<int> own(3, 0);
  std::vector<bool> viewed(3, false);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_deliver([&own, &w, i](ProcessId from, const gcs::AppMsg&) {
      if (from == w.pid(i)) ++own[static_cast<std::size_t>(i)];
    });
  }
  w.change_view(w.all());
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 5; ++k) {
      w.client(i).send("m" + std::to_string(k));
    }
  }
  // Reconfigure immediately; SELF checker enforces the property, this just
  // confirms the counts.
  w.change_view(w.all());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(own[static_cast<std::size_t>(i)], 5) << "endpoint " << i;
  }
  w.checkers.finalize();
}

TEST(Blocking, ClientBlockedDuringReconfiguration) {
  OracleWorld w(2);
  w.change_view(w.all());
  EXPECT_FALSE(w.client(0).blocked());
  w.oracle.start_change(w.all());
  // BlockingClient answers block_ok immediately, then reports blocked.
  EXPECT_TRUE(w.client(0).blocked());
  EXPECT_EQ(w.ep(0).block_status(), gcs::BlockStatus::kBlocked);
  // Sends while blocked are queued, not lost.
  w.client(0).send("queued");
  EXPECT_EQ(w.client(0).pending(), 1u);
  w.run();
  w.oracle.deliver_view(w.all());
  w.settle();
  EXPECT_FALSE(w.client(0).blocked());
  EXPECT_EQ(w.client(0).pending(), 0u);
  w.checkers.finalize();
}

TEST(Blocking, SyncMessageWithheldUntilBlockOk) {
  OracleWorld w(2);
  w.change_view(w.all());
  // Replace the client with one that delays block_ok.
  class SlowClient : public gcs::Client {
   public:
    explicit SlowClient(gcs::GcsEndpoint& ep) : ep_(ep) { ep.set_client(*this); }
    void deliver(ProcessId, const gcs::AppMsg&) override {}
    void view(const View&, const ProcessSet&) override {}
    void block() override { block_requested = true; }
    void ok() { ep_.block_ok(); }
    bool block_requested = false;

   private:
    gcs::GcsEndpoint& ep_;
  } slow(w.ep(0));

  const auto baseline = w.ep(0).vs_stats().sync_msgs_sent;
  w.oracle.start_change(w.all());
  w.run();
  EXPECT_TRUE(slow.block_requested);
  EXPECT_EQ(w.ep(0).vs_stats().sync_msgs_sent, baseline)
      << "sync message must wait for block_ok";
  slow.ok();
  w.run();
  EXPECT_EQ(w.ep(0).vs_stats().sync_msgs_sent, baseline + 1);
}

// A sync message's cut is one body: the sender's record, the message and
// every receiver's stored record share it (DESIGN.md §11.5).
TEST(VirtualSynchrony, StoredSyncSharesTheSendersCut) {
  OracleWorld w(3);
  w.change_view(w.all());
  w.client(0).send("m");
  w.settle();
  w.oracle.start_change(w.all());
  w.run();
  for (int i = 0; i < 3; ++i) {
    const ProcessId sender = w.pid(i);
    const StartChangeId cid = w.oracle.last_cid(sender);
    const gcs::SyncMsgData* own = w.ep(i).sync_msg(sender, cid);
    ASSERT_NE(own, nullptr) << "endpoint " << i;
    EXPECT_EQ(own->cut_of(w.pid(0)), 1);
    for (int j = 0; j < 3; ++j) {
      if (j == i) continue;
      const gcs::SyncMsgData* got = w.ep(j).sync_msg(sender, cid);
      ASSERT_NE(got, nullptr) << "endpoint " << j << " from " << i;
      EXPECT_TRUE(got->shares_cut_with(*own))
          << "endpoint " << j << " copied " << to_string(sender) << "'s cut";
    }
  }
}

/// The part of an end-point BasicBlockingClient drives, recorded.
struct RecordingEndpoint {
  gcs::Client* client = nullptr;
  std::vector<std::string> sent;
  /// A send of this payload makes the service block the client.
  std::string blocks_on;

  void set_client(gcs::Client& c) { client = &c; }
  void send(std::string payload) {
    const bool block = payload == blocks_on;
    sent.push_back(std::move(payload));
    if (block) client->block();
  }
};

// A callback written against the plain std::set sees every T exactly, from
// a set the client keeps in step with the end-point's flat one.
TEST(BlockingClient, PlainSetCallbackSeesEveryTransitionalSet) {
  RecordingEndpoint ep;
  app::BasicBlockingClient<RecordingEndpoint> client(ep);
  std::vector<std::set<ProcessId>> seen;
  client.on_view([&seen](const View&, const std::set<ProcessId>& t) {
    seen.push_back(t);
  });
  const std::vector<ProcessSet> ts = {
      {ProcessId{1}, ProcessId{2}, ProcessId{3}},
      {ProcessId{2}, ProcessId{3}, ProcessId{4}},
      {},
      {ProcessId{5}},
      {ProcessId{1}, ProcessId{5}, ProcessId{9}},
  };
  const View v = View::initial(ProcessId{1});
  for (const ProcessSet& t : ts) client.view(v, t);
  ASSERT_EQ(seen.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(std::set<ProcessId>(ts[i].begin(), ts[i].end()), seen[i])
        << "view " << i;
  }
}

// Sends queued while blocked go out in order at the next view; a send that
// blocks the client again leaves the rest queued, in order, for the view
// after.
TEST(BlockingClient, QueuedSendsFlushInOrderUntilBlockedAgain) {
  RecordingEndpoint ep;
  app::BasicBlockingClient<RecordingEndpoint> client(ep);
  const View v = View::initial(ProcessId{1});
  client.block();
  EXPECT_FALSE(client.send("a"));
  EXPECT_FALSE(client.send("b"));
  EXPECT_FALSE(client.send("c"));
  ep.blocks_on = "b";
  client.view(v, {});
  EXPECT_EQ(ep.sent, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(client.blocked());
  EXPECT_EQ(client.pending(), 1u);
  EXPECT_FALSE(client.send("d"));
  client.view(v, {});
  EXPECT_EQ(ep.sent, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(client.pending(), 0u);
}

TEST(ObsoleteViews, SupersededViewNeverDelivered) {
  OracleWorld w(2);
  w.change_view(w.all());
  const auto views_before = w.ep(0).stats().views_delivered;

  // View v1 arrives while its synchronization messages are still in flight,
  // and a NEW start_change supersedes it before the end-point can install
  // it. The paper's algorithm (precondition v.startId(p) = start_change.id)
  // must skip v1 entirely and deliver only the fresh view v2 — the Section 1
  // claim that no view reflecting out-of-date membership reaches the app.
  w.oracle.start_change(w.all());          // change 1 (no run: syncs in flight)
  w.oracle.deliver_view(w.all());          // v1, tagged with change-1 cids
  w.oracle.start_change(w.all());          // change 2 makes v1 obsolete
  w.run();
  EXPECT_EQ(w.ep(0).stats().views_delivered, views_before)
      << "obsolete view v1 must not be installed";
  w.oracle.deliver_view(w.all());          // v2, tagged with change-2 cids
  w.settle();
  EXPECT_EQ(w.ep(0).stats().views_delivered, views_before + 1)
      << "exactly one view (v2) delivered; v1 skipped";
  EXPECT_EQ(w.ep(0).current_view().members(), w.all());
  w.checkers.finalize();
}

}  // namespace
}  // namespace vsgc
