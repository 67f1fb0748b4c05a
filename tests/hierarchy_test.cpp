// Tests for the two-tier sync dissemination extension (paper Section 9,
// after Guo et al. [22]) and the Section 5.2.4 compact-sync optimization.
// The extension must preserve every safety property — the same checkers run —
// while cutting the sync message complexity from O(n^2) toward O(n).
#include <gtest/gtest.h>

#include "app/oracle_world.hpp"
#include "app/world.hpp"

namespace vsgc {
namespace {

using OracleWorld = app::OracleWorld<>;

TEST(TwoTier, ViewChangeCompletesWithAggregation) {
  OracleWorld w(6);
  const auto routing = gcs::SyncRouting::two_tier(6, 2);
  for (auto& ep : w.endpoints) ep->set_sync_routing(routing);
  w.change_view(w.all());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(w.ep(i).current_view().members(), w.all()) << "endpoint " << i;
  }
  // Leaders must have relayed something; non-leaders up-send exactly once.
  EXPECT_GT(w.ep(0).vs_stats().aggregates_relayed, 0u);
  EXPECT_GT(w.ep(3).vs_stats().aggregates_relayed, 0u);
  w.checkers.finalize();
}

TEST(TwoTier, VirtualSynchronyPreservedUnderTraffic) {
  OracleWorld w(6);
  const auto routing = gcs::SyncRouting::two_tier(6, 2);
  for (auto& ep : w.endpoints) ep->set_sync_routing(routing);
  std::vector<int> rx(6, 0);
  for (int i = 0; i < 6; ++i) {
    w.client(i).on_deliver(
        [&rx, i](ProcessId, const gcs::AppMsg&) { ++rx[static_cast<std::size_t>(i)]; });
  }
  w.change_view(w.all());
  for (int i = 0; i < 6; ++i) {
    for (int k = 0; k < 5; ++k) w.client(i).send("m");
  }
  w.change_view(w.all());  // reconfigure with messages in flight
  w.settle();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(rx[static_cast<std::size_t>(i)], 30) << "endpoint " << i;
  }
  w.checkers.finalize();  // VS/TRANS_SET/SELF checkers all enforced
}

TEST(TwoTier, FewerSyncCopiesThanDirect) {
  auto total_sync_msgs = [](OracleWorld& w) {
    std::uint64_t total = 0;
    for (auto& ep : w.endpoints) {
      total += ep->vs_stats().sync_msgs_sent +
               ep->vs_stats().aggregates_relayed;
    }
    return total;
  };
  const int n = 12;
  OracleWorld direct(n);
  direct.change_view(direct.all());
  direct.change_view(direct.all());

  OracleWorld tiered(n);
  const auto routing = gcs::SyncRouting::two_tier(n, 3);
  for (auto& ep : tiered.endpoints) ep->set_sync_routing(routing);
  tiered.change_view(tiered.all());
  tiered.change_view(tiered.all());

  EXPECT_LT(total_sync_msgs(tiered), total_sync_msgs(direct))
      << "two-tier dissemination must reduce sync traffic for n=" << n;
}

TEST(TwoTier, OrphanFallsBackToDirectWhenLeaderExcluded) {
  OracleWorld w(4);
  // p1 leads everyone.
  gcs::SyncRouting routing;
  routing.mode = gcs::SyncRouting::Mode::kTwoTier;
  for (int i = 0; i < 4; ++i) {
    routing.leader_of[w.pid(i)] = w.pid(0);
  }
  for (auto& ep : w.endpoints) ep->set_sync_routing(routing);
  w.change_view(w.all());

  // The leader dies; the others must still reconfigure (direct fallback).
  w.ep(0).crash();
  w.transport(0).crash();
  const auto rest = w.pids({1, 2, 3});
  for (ProcessId p : rest) w.oracle.start_change_to(p, rest);
  w.run();
  const View v = w.oracle.make_view(rest);
  for (ProcessId p : rest) w.oracle.deliver_view_to(p, v);
  w.run(2 * sim::kSecond);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(w.ep(i).current_view().members(), rest) << "endpoint " << i;
  }
  w.checkers.finalize();
}

TEST(CompactSync, StrangersGetCutlessSyncs) {
  // Two disjoint singleton-ish groups merge: every peer is a stranger, so
  // compact syncs suffice, and the merge must still complete correctly.
  OracleWorld w(4);
  gcs::SyncRouting routing;
  routing.compact_sync_to_strangers = true;
  for (auto& ep : w.endpoints) ep->set_sync_routing(routing);
  w.change_view(w.pids({0, 1}));
  // Note: processes 2,3 stay in initial singleton views.
  w.oracle.start_change(w.all());
  w.run();
  w.oracle.deliver_view(w.all());
  w.settle();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(w.ep(i).current_view().members(), w.all()) << "endpoint " << i;
  }
  w.checkers.finalize();
}

TEST(CompactSync, SavesBytesOnMerges) {
  auto sync_bytes = [](OracleWorld& w) {
    std::uint64_t total = 0;
    for (auto& ep : w.endpoints) total += ep->vs_stats().sync_bytes_sent;
    return total;
  };
  auto run_merge = [](OracleWorld& w) {
    w.change_view(w.pids({0, 1, 2}));
    for (int i = 0; i < 3; ++i) {
      for (int k = 0; k < 10; ++k) w.client(i).send("m");
    }
    w.settle();
    w.oracle.start_change(w.all());  // merge with 3 strangers
    w.run();
    w.oracle.deliver_view(w.all());
    w.settle();
  };
  OracleWorld plain(6);
  run_merge(plain);
  OracleWorld compact(6);
  gcs::SyncRouting routing;
  routing.compact_sync_to_strangers = true;
  for (auto& ep : compact.endpoints) ep->set_sync_routing(routing);
  run_merge(compact);
  EXPECT_LT(sync_bytes(compact), sync_bytes(plain));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(compact.ep(i).current_view().members(), compact.all());
  }
  compact.checkers.finalize();
}

/// Sync messages as the processes of one World received them, and the
/// sync bytes they sent. A receipt is a stranger's when the receiver is
/// outside the view the sync message carries (its sender's view).
struct SiteMerge {
  int stranger_syncs = 0;
  int stranger_syncs_with_cut = 0;
  int member_syncs_without_cut = 0;
  std::uint64_t sync_bytes = 0;
};

/// Two sites, each with its own membership server, form their own views
/// under a partition and exchange traffic; the heal merges them, so every
/// process of the other site is a stranger to each sender. Real membership
/// servers, exact checkers.
SiteMerge run_site_merge(bool compact) {
  app::WorldConfig cfg;
  cfg.num_clients = 6;
  cfg.num_servers = 2;
  cfg.seed = 5;
  cfg.sync_routing.compact_sync_to_strangers = compact;
  app::World w(cfg);
  SiteMerge run;
  for (int i = 0; i < w.num_clients(); ++i) {
    // gcs::Process's routing, with each sync message noted on its way in.
    gcs::Process* p = &w.process(i);
    p->transport().set_deliver_handler(
        [p, &run](net::NodeId from, const std::any& payload) {
          if (p->membership().handle(from, payload)) return;
          if (net::is_server_node(from)) return;
          if (const auto* sync = std::any_cast<gcs::wire::SyncMsg>(&payload)) {
            if (!sync->view.contains(p->id())) {
              ++run.stranger_syncs;
              if (!sync->cut.empty()) ++run.stranger_syncs_with_cut;
            } else if (sync->cut.empty()) {
              ++run.member_syncs_without_cut;
            }
          }
          p->endpoint().on_co_rfifo_deliver(net::process_of(from), payload);
        });
  }
  // Clients i % 2 == s attach to server s: site A is p1, p3, p5 and s0.
  std::set<ProcessId> site_a, site_b;
  std::set<net::NodeId> nodes_a{net::node_of(ServerId{0})};
  std::set<net::NodeId> nodes_b{net::node_of(ServerId{1})};
  for (int i = 0; i < w.num_clients(); ++i) {
    const ProcessId p = w.process(i).id();
    (i % 2 == 0 ? site_a : site_b).insert(p);
    (i % 2 == 0 ? nodes_a : nodes_b).insert(net::node_of(p));
  }
  w.network().partition({nodes_a, nodes_b});
  w.start();
  EXPECT_TRUE(w.run_until_converged(site_a, 10 * sim::kSecond));
  EXPECT_TRUE(w.run_until_converged(site_b, 10 * sim::kSecond));
  for (int i = 0; i < w.num_clients(); ++i) {
    for (int k = 0; k < 5; ++k) w.client(i).send("m");
  }
  w.run_for(500 * sim::kMillisecond);
  w.network().heal();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 20 * sim::kSecond));
  w.run_for(sim::kSecond);
  EXPECT_NO_THROW(w.finalize_checkers());
  for (int i = 0; i < w.num_clients(); ++i) {
    run.sync_bytes += w.process(i).endpoint().vs_stats().sync_bytes_sent;
  }
  return run;
}

TEST(CompactSync, StrangersJoiningAChangeGetCutlessSyncs) {
  const SiteMerge direct = run_site_merge(false);
  const SiteMerge compact = run_site_merge(true);
  EXPECT_GT(compact.stranger_syncs, 0);
  EXPECT_EQ(compact.stranger_syncs_with_cut, 0)
      << "a sync message to a stranger carries no cut";
  EXPECT_EQ(compact.member_syncs_without_cut, 0)
      << "members of the sender's view still get the cut";
  EXPECT_GT(direct.stranger_syncs, 0);
  EXPECT_EQ(direct.stranger_syncs_with_cut, direct.stranger_syncs)
      << "direct mode sends every recipient the cut";
  EXPECT_LT(compact.sync_bytes, direct.sync_bytes);
}

}  // namespace
}  // namespace vsgc
