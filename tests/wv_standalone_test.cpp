// The paper constructs its algorithm incrementally (Section 5): WV_RFIFO
// alone already satisfies WV_RFIFO:SPEC and Property 4.2. These tests run
// the BASE automaton standalone (no virtual synchrony, no blocking) against
// the WV checker, mirroring the paper's Section 5.1 argument.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/oracle_world.hpp"
#include "spec/liveness_checker.hpp"

namespace vsgc::gcs {
namespace {

/// What each client saw: delivered payloads in order, and views installed.
struct Seen {
  explicit Seen(app::OracleWorld<WvRfifoEndpoint>& w)
      : payloads(w.endpoints.size()), views(w.endpoints.size()) {
    for (std::size_t i = 0; i < w.endpoints.size(); ++i) {
      w.client(static_cast<int>(i))
          .on_deliver([this, i](ProcessId, const AppMsg& m) {
            payloads[i].push_back(m.payload());
          });
      w.client(static_cast<int>(i))
          .on_view([this, i](const View&, const std::set<ProcessId>&) {
            ++views[i];
          });
    }
  }

  std::vector<std::vector<std::string>> payloads;
  std::vector<int> views;
};

TEST(WvStandalone, ViewsInstallWithoutSynchronizationMessages) {
  app::OracleWorld<WvRfifoEndpoint> w(3);
  // WV alone does not wait for sync messages: the membership view installs
  // as soon as it arrives (view_gate of the base automaton is vacuous).
  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());
  for (auto& ep : w.endpoints) {
    EXPECT_EQ(ep->current_view().members(), w.all());
  }
}

TEST(WvStandalone, WithinViewFifoDeliveryHolds) {
  app::OracleWorld<WvRfifoEndpoint> w(3);
  Seen seen(w);
  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());
  for (int k = 0; k < 10; ++k) w.ep(0).send("a" + std::to_string(k));
  w.settle();
  for (const auto& d : seen.payloads) {
    ASSERT_EQ(d.size(), 10u);
    for (int k = 0; k < 10; ++k) {
      EXPECT_EQ(d[static_cast<std::size_t>(k)], "a" + std::to_string(k));
    }
  }
  EXPECT_TRUE(spec::LivenessChecker::check(w.trace.recorded()));
}

TEST(WvStandalone, MessagesNeverCrossViewBoundaries) {
  app::OracleWorld<WvRfifoEndpoint> w(2);
  Seen seen(w);
  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());
  w.ep(0).send("in-view-1");
  w.settle();
  // Move on; messages sent in view 1 but arriving later must not be
  // delivered in view 2 (the WV checker enforces it; counts confirm).
  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());
  w.settle();
  w.ep(1).send("in-view-2");
  w.settle();
  EXPECT_EQ(seen.payloads[0],
            (std::vector<std::string>{"in-view-1", "in-view-2"}));
}

TEST(WvStandalone, SelfDeliveryOnlyAfterMulticast) {
  // The base automaton's (q = p) => last_dlvrd < last_sent precondition:
  // an end-point cannot self-deliver before co_rfifo.send happened. Since
  // both occur inside one pump, we observe the effect: self-delivery works
  // and the message is on the wire to peers.
  app::OracleWorld<WvRfifoEndpoint> w(2);
  Seen seen(w);
  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());
  w.ep(0).send("x");
  w.settle();
  EXPECT_EQ(seen.payloads[0].size(), 1u);
  EXPECT_EQ(seen.payloads[1].size(), 1u);
  EXPECT_GE(w.transport(0).stats().messages_sent, 1u);
}

TEST(WvStandalone, NoObsoleteViewSkippingInBase) {
  // Unlike the VS child, the base automaton installs every membership view
  // (its only precondition is monotonicity) — the obsolete-view skipping is
  // genuinely a property of the Figure 10 extension.
  app::OracleWorld<WvRfifoEndpoint> w(2);
  Seen seen(w);
  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());
  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());
  w.settle();
  EXPECT_EQ(seen.views[0], 2);
}

}  // namespace
}  // namespace vsgc::gcs
