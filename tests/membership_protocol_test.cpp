// Protocol-level tests for the membership servers' round agreement: identical
// views across servers, round catch-up, obsolete-view suppression, and the
// client-incarnation blip detection (see EXPERIMENTS.md "notable findings").
#include <gtest/gtest.h>

#include "app/world.hpp"
#include "spec/liveness_checker.hpp"

namespace vsgc {
namespace {

TEST(MembershipProtocol, ConcurrentServersFormIdenticalViews) {
  // The round protocol must make every server compute the IDENTICAL view —
  // including the identical startId map — even while rounds race during
  // warm-up. The GCS checkers would catch id collisions; here we check the
  // client-visible result directly.
  app::WorldConfig cfg;
  cfg.num_clients = 6;
  cfg.num_servers = 3;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  const View& reference = w.process(0).endpoint().current_view();
  for (int i = 1; i < 6; ++i) {
    EXPECT_EQ(w.process(i).endpoint().current_view(), reference)
        << "client " << i << " installed a different view object";
  }
  w.checkers().finalize();
}

TEST(MembershipProtocol, RoundsCatchUpAfterPartition) {
  // A server isolated through several rounds must catch up to its peers'
  // round numbers on merge (epochs keep increasing monotonically).
  app::WorldConfig cfg;
  cfg.num_clients = 4;
  cfg.num_servers = 2;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  w.network().partition(
      {{net::node_of(ServerId{0}), net::node_of(ProcessId{1}),
        net::node_of(ProcessId{3})},
       {net::node_of(ServerId{1}), net::node_of(ProcessId{2}),
        net::node_of(ProcessId{4})}});
  // Extra churn inside component A bumps s0's rounds well past s1's.
  w.run_for(3 * sim::kSecond);
  w.process(0).crash();
  w.run_for(3 * sim::kSecond);
  w.process(0).recover();
  w.run_for(3 * sim::kSecond);
  const auto epoch_a = w.server(0).last_epoch();
  const auto epoch_b = w.server(1).last_epoch();
  EXPECT_GT(epoch_a, epoch_b);

  w.network().heal();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 20 * sim::kSecond));
  EXPECT_GE(w.server(1).last_epoch(), epoch_a)
      << "the lagging server must catch up to the merged round";
  EXPECT_EQ(w.server(0).last_epoch(), w.server(1).last_epoch());
  w.checkers().finalize();
}

TEST(MembershipProtocol, FastCrashRecoveryBlipStillYieldsFreshView) {
  // A client that crashes and recovers FASTER than the failure detector's
  // timeout must still receive a fresh view (per-life heartbeat
  // incarnations); without that, Property 4.2 liveness fails.
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  cfg.server.fd_timeout = 500 * sim::kMillisecond;  // generous timeout
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  const ViewId before = w.process(1).endpoint().current_view().id;

  w.process(1).crash();
  w.run_for(100 * sim::kMillisecond);  // well inside the FD timeout
  w.process(1).recover();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 20 * sim::kSecond))
      << "blipped client must reconverge although the FD never noticed";
  EXPECT_LT(before, w.process(1).endpoint().current_view().id);

  // And the reconverged group is fully live.
  std::vector<int> rx(3, 0);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_deliver(
        [&rx, i](ProcessId, const gcs::AppMsg&) { ++rx[static_cast<std::size_t>(i)]; });
  }
  w.client(1).send("hello again");
  w.run_for(2 * sim::kSecond);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rx[static_cast<std::size_t>(i)], 1);
  w.checkers().finalize();
  EXPECT_TRUE(spec::LivenessChecker::check(w.trace().recorded()));
}

TEST(MembershipProtocol, ObsoleteViewSuppressionCountsStayBounded) {
  // Suppression (a formed view failing the start_change validation) may
  // happen transiently, but the protocol must converge rather than livelock.
  app::WorldConfig cfg;
  cfg.num_clients = 8;
  cfg.num_servers = 2;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 15 * sim::kSecond));
  const auto r0 = w.server(0).stats().rounds_started;
  const auto r1 = w.server(1).stats().rounds_started;
  w.run_for(5 * sim::kSecond);
  EXPECT_EQ(w.server(0).stats().rounds_started, r0)
      << "no rounds may start while the membership is stable";
  EXPECT_EQ(w.server(1).stats().rounds_started, r1);
}

TEST(MembershipProtocol, GracefulLeaveSkipsFailureDetectorTimeout) {
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  cfg.server.fd_timeout = 2 * sim::kSecond;  // deliberately long
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  const sim::Time before = w.sim().now();
  w.process(2).leave();
  ASSERT_TRUE(w.run_until_converged({ProcessId{1}, ProcessId{2}},
                                    1 * sim::kSecond))
      << "a graceful leave must reconfigure well before the 2 s FD timeout";
  EXPECT_LT(w.sim().now() - before, sim::kSecond);
  w.checkers().finalize();
}

TEST(MembershipProtocol, LeaverCanRejoin) {
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  w.process(2).leave();
  ASSERT_TRUE(w.run_until_converged({ProcessId{1}, ProcessId{2}},
                                    10 * sim::kSecond));
  w.process(2).start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));

  std::vector<int> rx(3, 0);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_deliver(
        [&rx, i](ProcessId, const gcs::AppMsg&) { ++rx[static_cast<std::size_t>(i)]; });
  }
  w.client(2).send("back again");
  w.run_for(2 * sim::kSecond);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rx[static_cast<std::size_t>(i)], 1);
  w.checkers().finalize();
}

TEST(MembershipProtocol, ForgedLeaveIgnored) {
  app::WorldConfig cfg;
  cfg.num_clients = 2;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  // p1 forges a Leave for p2: must be ignored (source mismatch).
  membership::wire::Leave forged{ProcessId{2}};
  w.process(0).transport().send_raw(net::node_of(ServerId{0}),
                                    std::any(forged),
                                    codec::wire_size(forged));
  w.run_for(2 * sim::kSecond);
  EXPECT_TRUE(w.converged(w.all_members()))
      << "forged leave must not evict p2";
}

TEST(MembershipProtocol, ServerCrashExcludesItsClients) {
  app::WorldConfig cfg;
  cfg.num_clients = 4;
  cfg.num_servers = 2;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  // Kill server 1 (and its clients become unreachable for membership
  // purposes; their server never reports them again).
  w.network().set_node_up(net::node_of(ServerId{1}), false);
  // Clients 1 and 3 (indices 0, 2) are on server 0.
  ASSERT_TRUE(w.run_until_converged({ProcessId{1}, ProcessId{3}},
                                    20 * sim::kSecond))
      << "server-0 clients must reconfigure without server 1's clients";
  w.checkers().finalize();
}

}  // namespace
}  // namespace vsgc
