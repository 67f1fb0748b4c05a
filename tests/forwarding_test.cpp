// Tests for the Section 5.2.2 forwarding strategies: when a member of the
// transitional set committed to a message that another member lacks (because
// the original sender is gone), the message must be forwarded so both can
// move to the new view with the agreed cut.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/oracle_world.hpp"

namespace vsgc {
namespace {

using OracleWorld = app::OracleWorld<>;

/// Scenario: p1, p2, p3 share a view. p1 multicasts a message; p3's link to
/// p1 is down, so only p2 receives it. The membership then excludes p1.
/// p2 committed to the message in its cut, so p2 must forward it to p3 and
/// both must deliver it before installing the {p2, p3} view.
void run_forwarding_scenario(gcs::ForwardingKind kind,
                             std::uint64_t* forwarded_copies) {
  OracleWorld w(3, /*seed=*/1, {}, kind);
  std::vector<std::vector<std::string>> rx(3);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_deliver([&rx, i](ProcessId from, const gcs::AppMsg& m) {
      rx[static_cast<std::size_t>(i)].push_back(to_string(from) + ":" +
                                                m.payload());
    });
  }
  w.change_view(w.all());

  // p3 stops hearing p1 directly.
  w.network.set_link_up(net::node_of(w.pid(0)), net::node_of(w.pid(2)),
                         false);
  w.client(0).send("lost-msg");
  w.run();
  EXPECT_EQ(rx[1].size(), 1u) << "p2 must have the message";
  EXPECT_TRUE(rx[2].empty()) << "p3 must be missing the message";

  // p1 is gone for good (its endless retransmissions to the dead link would
  // otherwise keep the simulation busy); membership excludes it and p2, p3
  // reconfigure into {p2, p3}.
  w.ep(0).crash();
  w.transport(0).crash();
  w.oracle.start_change_to(w.pid(1), w.pids({1, 2}));
  w.oracle.start_change_to(w.pid(2), w.pids({1, 2}));
  w.run();
  const View v = w.oracle.make_view(w.pids({1, 2}));
  w.oracle.deliver_view_to(w.pid(1), v);
  w.oracle.deliver_view_to(w.pid(2), v);
  w.run(2 * sim::kSecond);

  EXPECT_EQ(w.ep(1).current_view().members(), w.pids({1, 2}));
  EXPECT_EQ(w.ep(2).current_view().members(), w.pids({1, 2}));
  ASSERT_EQ(rx[2].size(), 1u) << "the lost message must be forwarded to p3";
  EXPECT_EQ(rx[2][0], "p1:lost-msg");
  *forwarded_copies = w.ep(1).vs_stats().forwards_sent +
                      w.ep(2).vs_stats().forwards_sent;
  w.checkers.finalize();
}

TEST(Forwarding, SimpleStrategyRecoversMissingMessage) {
  std::uint64_t copies = 0;
  run_forwarding_scenario(gcs::ForwardingKind::kSimple, &copies);
  EXPECT_GE(copies, 1u);
}

TEST(Forwarding, MinCopiesStrategyRecoversMissingMessage) {
  std::uint64_t copies = 0;
  run_forwarding_scenario(gcs::ForwardingKind::kMinCopies, &copies);
  EXPECT_EQ(copies, 1u) << "min-copies must forward exactly one copy";
}

TEST(Forwarding, NoForwardingWhenNothingMissing) {
  for (auto kind :
       {gcs::ForwardingKind::kSimple, gcs::ForwardingKind::kMinCopies}) {
    OracleWorld w(3, 1, {}, kind);
    w.change_view(w.all());
    w.client(0).send("m");
    w.settle();
    w.change_view(w.all());
    std::uint64_t copies = 0;
    for (int i = 0; i < 3; ++i) copies += w.ep(i).vs_stats().forwards_sent;
    EXPECT_EQ(copies, 0u);
    w.checkers.finalize();
  }
}

TEST(Forwarding, MultipleMissingMessagesAllRecovered) {
  OracleWorld w(3, 1, {}, gcs::ForwardingKind::kMinCopies);
  std::vector<std::string> rx3;
  w.client(2).on_deliver(
      [&rx3](ProcessId, const gcs::AppMsg& m) { rx3.push_back(m.payload()); });
  w.change_view(w.all());
  w.network.set_link_up(net::node_of(w.pid(0)), net::node_of(w.pid(2)),
                         false);
  for (int i = 0; i < 7; ++i) w.client(0).send("x" + std::to_string(i));
  w.run();
  EXPECT_TRUE(rx3.empty());
  w.ep(0).crash();
  w.transport(0).crash();
  w.oracle.start_change_to(w.pid(1), w.pids({1, 2}));
  w.oracle.start_change_to(w.pid(2), w.pids({1, 2}));
  w.run();
  const View v = w.oracle.make_view(w.pids({1, 2}));
  w.oracle.deliver_view_to(w.pid(1), v);
  w.oracle.deliver_view_to(w.pid(2), v);
  w.run(2 * sim::kSecond);
  ASSERT_EQ(rx3.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(rx3[static_cast<std::size_t>(i)], "x" + std::to_string(i))
        << "forwarded messages must respect FIFO order";
  }
  w.checkers.finalize();
}

TEST(Forwarding, DuplicateForwardsSuppressed) {
  // Same scenario, but with message loss forcing retransmission pressure;
  // forwarded_set must still prevent duplicate copies per destination.
  std::uint64_t copies = 0;
  run_forwarding_scenario(gcs::ForwardingKind::kMinCopies, &copies);
  EXPECT_EQ(copies, 1u);
}

}  // namespace
}  // namespace vsgc
