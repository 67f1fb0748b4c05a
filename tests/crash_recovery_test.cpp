// Section 8 tests: crash and recovery of end-points without stable storage.
#include <gtest/gtest.h>

#include "app/oracle_world.hpp"
#include "app/world.hpp"
#include "spec/liveness_checker.hpp"

namespace vsgc {
namespace {

using OracleWorld = app::OracleWorld<>;

TEST(CrashRecovery, CrashedEndpointIgnoresAllInputs) {
  OracleWorld w(2);
  w.change_view(w.all());
  w.ep(0).crash();
  EXPECT_TRUE(w.ep(0).crashed());
  const auto sent_before = w.ep(0).stats().sent;
  w.client(0).send("ignored");
  w.settle();
  EXPECT_EQ(w.ep(0).stats().sent, sent_before);
  // Views are also ignored while crashed.
  w.oracle.start_change_to(w.pid(1), {w.pid(1)});
  const View v = w.oracle.make_view({w.pid(1)});
  w.oracle.deliver_view_to(w.pid(1), v);
  w.settle();
  EXPECT_NE(w.ep(0).current_view().members(), std::set<ProcessId>{w.pid(1)});
}

TEST(CrashRecovery, RecoveryResetsToInitialSingletonView) {
  OracleWorld w(2);
  w.change_view(w.all());
  EXPECT_EQ(w.ep(0).current_view().members().size(), 2u);
  w.ep(0).crash();
  w.transport(0).crash();
  w.sim.run_until(w.sim.now() + sim::kMillisecond);
  w.transport(0).recover();
  w.ep(0).recover();
  EXPECT_FALSE(w.ep(0).crashed());
  EXPECT_EQ(w.ep(0).current_view(), View::initial(w.pid(0)));
}

TEST(CrashRecovery, RecoveredEndpointCanOperateInSingletonView) {
  OracleWorld w(2);
  w.change_view(w.all());
  w.ep(0).crash();
  w.transport(0).crash();
  w.sim.run_until(w.sim.now() + sim::kMillisecond);
  w.transport(0).recover();
  w.ep(0).recover();
  int rx = 0;
  w.client(0).on_deliver([&rx](ProcessId, const gcs::AppMsg&) { ++rx; });
  w.client(0).send("local");
  w.settle();
  EXPECT_EQ(rx, 1) << "self-delivery must work in the post-recovery view";
  w.checkers.finalize();
}

TEST(CrashRecovery, LocalMonotonicityHeldAcrossRecovery) {
  // The WV checker's monotonicity floor enforces that post-recovery GCS
  // views still exceed every pre-crash view id (the membership keeps state).
  OracleWorld w(2);
  w.change_view(w.all());
  w.change_view(w.all());
  w.ep(0).crash();
  w.transport(0).crash();
  w.sim.run_until(w.sim.now() + sim::kMillisecond);
  w.transport(0).recover();
  w.ep(0).recover();
  // The oracle retained its per-process cids/epochs, so the next view has a
  // higher id; the checker would throw otherwise.
  w.change_view(w.all());
  w.settle();
  EXPECT_EQ(w.ep(0).current_view().members(), w.all());
  w.checkers.finalize();
}

TEST(CrashRecovery, FullStackCrashStormEventuallyConverges) {
  app::WorldConfig cfg;
  cfg.num_clients = 4;
  cfg.num_servers = 2;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 8 * sim::kSecond));

  // Crash half the group, let the survivors reconfigure, then recover.
  w.process(1).crash();
  w.process(3).crash();
  w.run_for(5 * sim::kSecond);
  w.process(1).recover();
  w.run_for(3 * sim::kSecond);
  w.process(3).recover();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 20 * sim::kSecond));

  std::vector<int> rx(4, 0);
  for (int i = 0; i < 4; ++i) {
    w.client(i).on_deliver(
        [&rx, i](ProcessId, const gcs::AppMsg&) { ++rx[static_cast<std::size_t>(i)]; });
  }
  w.client(3).send("back");
  w.run_for(2 * sim::kSecond);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rx[static_cast<std::size_t>(i)], 1);
  w.checkers().finalize();
  EXPECT_TRUE(spec::LivenessChecker::check(w.trace().recorded()));
}

TEST(CrashRecovery, RepeatedCrashRecoverCyclesStaySafe) {
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 5 * sim::kSecond));
  for (int cycle = 0; cycle < 3; ++cycle) {
    w.process(2).crash();
    w.run_for(4 * sim::kSecond);
    w.process(2).recover();
    ASSERT_TRUE(w.run_until_converged(w.all_members(), 15 * sim::kSecond))
        << "cycle " << cycle;
    w.client(2).send("alive-again");
    w.run_for(2 * sim::kSecond);
  }
  w.checkers().finalize();
}

}  // namespace
}  // namespace vsgc
