// Tests for the CO_RFIFO stream-reset handshake: recovery of a RECEIVER that
// lost its state must never wedge a connection whose acked prefix is gone
// (the Section 8 scenario the churn sweeps uncovered — see EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "spec/co_rfifo_checker.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc::transport {
namespace {

struct Pair {
  explicit Pair(net::Network::Config cfg = {}, std::uint64_t seed = 1)
      : network(sim, Rng(seed), cfg),
        a(sim, network, net::NodeId{1}),
        b(sim, network, net::NodeId{2}) {
    a.set_reliable({net::NodeId{2}});
    checker.note_reliable(net::NodeId{1}, {net::NodeId{1}, net::NodeId{2}});
    b.set_deliver_handler([this](net::NodeId from, const std::any& payload) {
      const auto uid = std::any_cast<std::uint64_t>(payload);
      checker.note_deliver(from, net::NodeId{2}, uid);
      received.push_back(uid);
    });
  }

  void send(std::uint64_t uid) {
    checker.note_send(net::NodeId{1}, {net::NodeId{2}}, uid);
    a.send({net::NodeId{2}}, uid, 8);
  }

  sim::Simulator sim;
  net::Network network;
  CoRfifoTransport a;
  CoRfifoTransport b;
  /// Every delivery is checked against the CO_RFIFO spec automaton.
  spec::CoRfifoChecker checker;
  std::vector<std::uint64_t> received;
};

TEST(CoRfifoReset, ReceiverRecoveryUnwedgesOngoingStream) {
  Pair h;
  // Establish a stream with an acked prefix.
  for (std::uint64_t i = 1; i <= 5; ++i) h.send(i);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 5u);

  // Receiver crashes and recovers: its incoming state (and the delivered
  // prefix) is gone. The sender does not notice and keeps streaming.
  h.b.crash();
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.b.recover();
  h.received.clear();

  for (std::uint64_t i = 6; i <= 8; ++i) h.send(i);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);

  // Without the reset handshake the receiver would buffer seq 6.. forever
  // waiting for the unrecoverable seq 1..5. With it, the suffix arrives as a
  // fresh stream, in order.
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{6, 7, 8}));
}

TEST(CoRfifoReset, UnackedSuffixSurvivesTheReset) {
  Pair h;
  h.send(1);
  h.sim.run_to_quiescence();
  // Crash the receiver, then send while it is down: these stay unacked.
  h.b.crash();
  h.send(2);
  h.send(3);
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.b.recover();
  h.received.clear();
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  // The unacked suffix is re-homed onto the fresh incarnation and delivered.
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{2, 3}));
}

TEST(CoRfifoReset, NoResetWhenPrefixStillRetransmittable) {
  // If nothing was acked yet, a recovered receiver simply gets the stream
  // from seq 1 via retransmission — no reset, no loss.
  net::Network::Config cfg;
  Pair h(cfg);
  h.network.set_node_up(net::NodeId{2}, false);  // receiver unreachable
  h.send(1);
  h.send(2);
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.network.set_node_up(net::NodeId{2}, true);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CoRfifoReset, RepeatedRecoveryCyclesStayLive) {
  Pair h;
  std::uint64_t uid = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    h.send(++uid);
    h.sim.run_to_quiescence();
    h.b.crash();
    h.sim.run_until(h.sim.now() + sim::kMillisecond);
    h.b.recover();
  }
  h.received.clear();
  h.send(++uid);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0], uid);
}

TEST(CoRfifoReset, LossDuringHandshakeStillConverges) {
  net::Network::Config cfg;
  cfg.drop_probability = 0.3;
  Pair h(cfg, 77);
  for (std::uint64_t i = 1; i <= 10; ++i) h.send(i);
  h.sim.run_to_quiescence();
  h.b.crash();
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.b.recover();
  h.received.clear();
  for (std::uint64_t i = 11; i <= 30; ++i) h.send(i);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 20u) << "reset + retransmission must deliver "
                                       "the whole post-recovery stream";
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(h.received[i], 11 + i);
}

TEST(CoRfifoReset, RehomedPacketsCountAsRetransmissions) {
  // Regression: the reset re-home loop used to bypass stats_.retransmissions,
  // so a recovery storm looked free in the retransmission tables. The whole
  // handshake takes a few 1 ms hops, well inside one retransmit interval, so
  // the one re-homed packet is the only possible retransmission.
  Pair h;
  h.send(1);
  h.sim.run_until(h.sim.now() + sim::kSecond);
  ASSERT_EQ(h.received.size(), 1u);
  ASSERT_EQ(h.a.stats().retransmissions, 0u);

  h.b.crash();
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.b.recover();
  h.received.clear();
  h.send(2);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);

  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(h.a.stats().retransmissions, 1u)
      << "re-homing the unacked suffix onto the fresh incarnation is a "
         "retransmission and must be counted as one";
}

TEST(CoRfifoReset, IncarnationResetUnderSustainedLossStaysWithinSpec) {
  // The reset handshake itself runs under sustained packet loss AND a link
  // outage that strands the first reset exchanges: the receiver crashes and
  // recovers while the partition holds, so every handshake packet sent up to
  // then is lost. Pair's CoRfifoChecker asserts FIFO/no-gap/no-duplicate on
  // every delivery throughout.
  net::Network::Config cfg;
  cfg.drop_probability = 0.25;
  Pair h(cfg, 4242);
  for (std::uint64_t i = 1; i <= 5; ++i) h.send(i);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 5u);

  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, false);
  for (std::uint64_t i = 6; i <= 8; ++i) h.send(i);
  h.sim.run_until(h.sim.now() + 100 * sim::kMillisecond);
  h.b.crash();
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.b.recover();
  // Recovery completed behind the partition: any reset traffic is stranded.
  h.sim.run_until(h.sim.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(h.received.size(), 5u) << "nothing crosses a downed link";

  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, true);
  h.sim.run_to_quiescence();
  h.send(9);
  h.send(10);
  h.sim.run_to_quiescence();

  const std::vector<std::uint64_t> tail(h.received.begin() + 5,
                                        h.received.end());
  EXPECT_EQ(tail, (std::vector<std::uint64_t>{6, 7, 8, 9, 10}))
      << "the unacked suffix and fresh traffic arrive exactly once, in order";
  EXPECT_GE(h.a.stats().retransmissions, 3u)
      << "the stranded suffix had to be retransmitted";
}

TEST(CoRfifoReset, StaleResetAckIgnored) {
  Pair h;
  h.send(1);
  h.sim.run_to_quiescence();
  // Forge a stale reset for an old incarnation: must be ignored.
  Frame stale;
  stale.header.flags = wire::kFlagReset;
  stale.header.ack_incarnation = 1;  // definitely not the current incarnation
  h.network.send(net::NodeId{2}, net::NodeId{1}, std::any(stale),
                 wire::kFrameHeaderBytes);
  h.sim.run_to_quiescence();
  h.send(2);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CoRfifoFlowControl, ReceiveWindowBoundsOutOfOrderBuffer) {
  // Regression for the unbounded reorder buffer: the receiver used to emplace
  // every out-of-window entry into `out_of_order` forever. An honest sender
  // never gets that far ahead (the credit window stops it at kSendWindow
  // unacked entries), so a forged one does: a gap at seq 1, then more than
  // kRecvWindow entries after it. The receiver buffers what fits in the
  // window, drops the rest, and takes them when they are sent again.
  constexpr std::uint64_t kLast = CoRfifoTransport::kRecvWindow + 44;
  sim::Simulator sim;
  net::Network network(sim, Rng(1), {});
  const net::NodeId sender{1}, self{2};
  CoRfifoTransport b(sim, network, self);
  std::vector<std::uint64_t> received;
  b.set_deliver_handler([&received](net::NodeId, const std::any& payload) {
    received.push_back(std::any_cast<std::uint64_t>(payload));
  });
  // Entries lo..hi of one stream, each carrying its seq as the payload.
  const auto frame = [](std::uint64_t lo, std::uint64_t hi) {
    Frame f;
    f.header.incarnation = 5;
    f.header.first_seq = 1;
    f.header.base_seq = lo;
    for (std::uint64_t seq = lo; seq <= hi; ++seq) {
      f.entries.push_back(FrameEntry{seq, net::Payload(seq), 8, 0});
    }
    f.header.count = static_cast<std::uint32_t>(f.entries.size());
    return f;
  };

  network.send(sender, self, frame(2, kLast));  // seq 1 is missing
  sim.run_to_quiescence();
  const auto& rx_stats = b.stats();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(rx_stats.ooo_dropped, kLast - CoRfifoTransport::kRecvWindow)
      << "seqs at or beyond next_expected + kRecvWindow must be dropped";
  EXPECT_LE(rx_stats.peak_out_of_order, CoRfifoTransport::kRecvWindow)
      << "the reorder buffer must never exceed the receive window";

  network.send(sender, self, frame(1, 1));
  network.send(sender, self, frame(CoRfifoTransport::kRecvWindow + 1, kLast));
  sim.run_to_quiescence();
  ASSERT_EQ(received.size(), kLast)
      << "re-sending must recover everything the window dropped";
  for (std::uint64_t seq = 1; seq <= kLast; ++seq) {
    EXPECT_EQ(received[seq - 1], seq);
  }
  spec::CoRfifoChecker::check_bounded(
      self, rx_stats.peak_unacked, CoRfifoTransport::kSendWindow,
      rx_stats.peak_out_of_order, CoRfifoTransport::kRecvWindow);
}

TEST(CoRfifoFlowControl, CreditWindowBoundsUnackedQueue) {
  constexpr std::uint64_t kSends = CoRfifoTransport::kSendWindow + 44;
  Pair h;
  h.network.set_node_up(net::NodeId{2}, false);  // no acks will come back
  for (std::uint64_t i = 1; i <= kSends; ++i) h.send(i);
  h.sim.run_until(h.sim.now() + 500 * sim::kMillisecond);

  const auto& tx = h.a.stats();
  EXPECT_LE(tx.peak_unacked, CoRfifoTransport::kSendWindow)
      << "sends past the credit window must queue, not enter unacked";
  EXPECT_GE(tx.window_stalls, 1u);
  EXPECT_GE(tx.peak_pending, kSends - CoRfifoTransport::kSendWindow)
      << "the overflow waits in pending";

  h.network.set_node_up(net::NodeId{2}, true);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), kSends) << "credits from acks drain the queue";
  for (std::uint64_t i = 1; i <= kSends; ++i) {
    EXPECT_EQ(h.received[i - 1], i);
  }
  EXPECT_LE(h.a.stats().peak_unacked, CoRfifoTransport::kSendWindow);
}

TEST(CoRfifoFlowControl, ExponentialBackoffShrinksDuplicateStorms) {
  // Acks from b to a are severed (one-way outage), so a retransmits the same
  // message into b for the whole outage. A fixed interval would re-send it
  // every kRetransmitTimeout (200 times in 4 s), each a duplicate at b. The
  // backoff doubles the interval on every fire up to kBackoffLimit times the
  // base, so after three doubling fires (1x, 2x, 4x) it probes once per
  // capped interval.
  constexpr sim::Time kOutage = 4 * sim::kSecond;
  constexpr auto kCappedFires = static_cast<std::uint64_t>(
      kOutage / (CoRfifoTransport::kRetransmitTimeout *
                 CoRfifoTransport::kBackoffLimit));
  Pair h;
  h.network.set_oneway_link_up(net::NodeId{2}, net::NodeId{1}, false);
  h.send(1);
  h.sim.run_until(h.sim.now() + kOutage);

  const std::uint64_t retrans = h.a.stats().retransmissions;
  EXPECT_GE(retrans, kCappedFires) << "the capped timer keeps probing";
  EXPECT_LE(retrans, kCappedFires + 3)
      << "backoff must bound retransmissions over the outage";
  EXPECT_LE(h.b.stats().duplicates_dropped, retrans)
      << "every duplicate at the receiver is one of those retransmissions";
}

TEST(CoRfifoFlowControl, BackoffResetsOnAckProgress) {
  Pair h;
  // Phase 1: outage long enough to reach the backoff cap.
  h.network.set_oneway_link_up(net::NodeId{2}, net::NodeId{1}, false);
  h.send(1);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  h.network.set_oneway_link_up(net::NodeId{2}, net::NodeId{1}, true);
  h.sim.run_to_quiescence();
  const std::uint64_t after_heal = h.a.stats().retransmissions;

  // Phase 2: healthy traffic retransmits promptly again after a single loss —
  // the first retransmit fires one base interval (not 8x) after the send.
  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, false);
  h.send(2);
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, true);
  const sim::Time healed_at = h.sim.now();
  h.sim.run_until(healed_at + CoRfifoTransport::kRetransmitTimeout +
                  10 * sim::kMillisecond);
  EXPECT_GT(h.a.stats().retransmissions, after_heal)
      << "after ack progress the timer runs at the base interval again";
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace vsgc::transport
