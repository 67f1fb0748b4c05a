// Tests for the two-round pre-agreement baseline: it must be a CORRECT
// virtual synchrony implementation (same checkers as the paper's algorithm),
// while exhibiting the behaviours the paper criticizes — an extra agreement
// round and delivery of obsolete views under cascading reconfigurations.
#include <gtest/gtest.h>

#include <vector>

#include "app/oracle_world.hpp"
#include "baseline/two_round_endpoint.hpp"

namespace vsgc {
namespace {

TEST(Baseline, InstallsViewsAndDeliversMessages) {
  app::OracleWorld<baseline::TwoRoundEndpoint> w(3);
  std::vector<int> rx(3, 0);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_deliver([&rx, i](ProcessId, const gcs::AppMsg&) {
      ++rx[static_cast<std::size_t>(i)];
    });
  }
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.run(2 * sim::kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.ep(i).current_view().members(), w.all());
  }
  w.ep(0).send("hello");
  w.run(2 * sim::kSecond);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rx[static_cast<std::size_t>(i)], 1);
  w.checkers.finalize();
}

TEST(Baseline, SatisfiesVirtualSynchronyUnderChurn) {
  app::OracleWorld<baseline::TwoRoundEndpoint> w(3);
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.run(2 * sim::kSecond);
  // Messages in flight across a reconfiguration; VS/SELF checkers validate.
  for (int k = 0; k < 10; ++k) {
    w.ep(0).send("a");
    w.ep(1).send("b");
  }
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.run(2 * sim::kSecond);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(w.ep(i).stats().views_delivered, 2u);
  w.checkers.finalize();
}

TEST(Baseline, DeliversObsoleteViewsUnderCascadingChanges) {
  // Two membership views in quick succession: the baseline completes the
  // first round and delivers BOTH views; the paper's algorithm would skip
  // straight to the second (see ObsoleteViews.SupersededViewNeverDelivered).
  app::OracleWorld<baseline::TwoRoundEndpoint> w(3);
  std::vector<int> views(3, 0);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_view([&views, i](const View&, const std::set<ProcessId>&) {
      ++views[static_cast<std::size_t>(i)];
    });
  }
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.run(2 * sim::kSecond);  // settle into the first view

  w.oracle.start_change(w.all());
  w.oracle.deliver_view(w.all());   // view A
  w.oracle.start_change(w.all());   // change known BEFORE A installs
  w.oracle.deliver_view(w.all());   // view B supersedes A immediately
  w.run(3 * sim::kSecond);

  for (int i = 0; i < 3; ++i) {
    // initial + A + B = 3 views delivered to the application; the paper's
    // algorithm under the identical schedule delivers only 2 (see
    // ObsoleteViews.SupersededViewNeverDelivered).
    EXPECT_EQ(views[static_cast<std::size_t>(i)], 3)
        << "baseline should deliver the obsolete view A as well";
    EXPECT_GE(w.ep(i).baseline_stats().obsolete_views_delivered, 1u);
  }
  w.checkers.finalize();
}

TEST(Baseline, AbandonsViewWhoseParticipantVanished) {
  app::OracleWorld<baseline::TwoRoundEndpoint> w(3);
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.run(2 * sim::kSecond);

  // p3 crashes; a view including it can never complete, and the next view
  // excludes it — the baseline must abandon the first and install the next.
  w.ep(2).crash();
  w.transport(2).crash();
  w.oracle.start_change_to(w.pid(0), w.all());
  w.oracle.start_change_to(w.pid(1), w.all());
  const View dead = w.oracle.make_view(w.all());
  w.oracle.deliver_view_to(w.pid(0), dead);
  w.oracle.deliver_view_to(w.pid(1), dead);
  w.run(2 * sim::kSecond);
  w.oracle.start_change_to(w.pid(0), {w.pid(0), w.pid(1)});
  w.oracle.start_change_to(w.pid(1), {w.pid(0), w.pid(1)});
  const View survivors = w.oracle.make_view({w.pid(0), w.pid(1)});
  w.oracle.deliver_view_to(w.pid(0), survivors);
  w.oracle.deliver_view_to(w.pid(1), survivors);
  w.run(3 * sim::kSecond);

  EXPECT_EQ(w.ep(0).current_view().members(),
            (std::set<ProcessId>{w.pid(0), w.pid(1)}));
  EXPECT_EQ(w.ep(1).current_view().members(),
            (std::set<ProcessId>{w.pid(0), w.pid(1)}));
  EXPECT_GE(w.ep(0).baseline_stats().views_abandoned, 1u);
  w.checkers.finalize();
}

TEST(Baseline, TwoRoundsMeansMoreControlMessages) {
  app::OracleWorld<baseline::TwoRoundEndpoint> w(4);
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.run(2 * sim::kSecond);
  // Every member sent one agree AND one sync per view change; the paper's
  // algorithm sends only the sync.
  for (int i = 0; i < 4; ++i) {
    const auto& st = w.ep(i).baseline_stats();
    EXPECT_GE(st.agrees_sent, 1u);
    EXPECT_GE(st.sync_msgs_sent, 1u);
  }
  w.checkers.finalize();
}

}  // namespace
}  // namespace vsgc
