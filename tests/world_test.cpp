// Tests for the application harness pieces: BlockingClient (Figure 12
// contract), World convergence helpers, and Process lifecycle.
#include <gtest/gtest.h>

#include "app/oracle_world.hpp"
#include "app/world.hpp"

namespace vsgc {
namespace {

using OracleWorld = app::OracleWorld<>;

TEST(BlockingClient, AnswersBlockImmediately) {
  OracleWorld w(2);
  w.change_view(w.all());
  w.oracle.start_change(w.all());
  // BlockingClient answered block_ok synchronously inside the notification.
  EXPECT_EQ(w.ep(0).block_status(), gcs::BlockStatus::kBlocked);
  EXPECT_TRUE(w.client(0).blocked());
}

TEST(BlockingClient, QueuedSendsPreserveOrderAcrossViewChange) {
  OracleWorld w(2);
  std::vector<std::string> rx;
  w.client(1).on_deliver(
      [&rx](ProcessId, const gcs::AppMsg& m) { rx.push_back(m.payload()); });
  w.change_view(w.all());
  w.client(0).send("before");
  w.oracle.start_change(w.all());
  // These are queued while blocked and flushed, in order, on the new view.
  w.client(0).send("q1");
  w.client(0).send("q2");
  w.client(0).send("q3");
  EXPECT_EQ(w.client(0).pending(), 3u);
  w.run();
  w.oracle.deliver_view(w.all());
  w.settle();
  ASSERT_EQ(rx.size(), 4u);
  EXPECT_EQ(rx, (std::vector<std::string>{"before", "q1", "q2", "q3"}));
  w.checkers.finalize();
}

TEST(BlockingClient, ViewCallbackSeesTransitionalSet) {
  OracleWorld w(3);
  std::set<ProcessId> seen;
  w.client(0).on_view(
      [&seen](const View&, const std::set<ProcessId>& t) { seen = t; });
  w.change_view(w.all());
  w.change_view(w.all());
  EXPECT_EQ(seen, w.all());
}

TEST(World, ConvergedRequiresIdenticalViews) {
  app::WorldConfig cfg;
  cfg.num_clients = 2;
  app::World w(cfg);
  EXPECT_FALSE(w.converged(w.all_members())) << "nothing started yet";
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 5 * sim::kSecond));
  EXPECT_TRUE(w.converged(w.all_members()));
  EXPECT_FALSE(w.converged({ProcessId{1}}))
      << "converged() must match the exact member set";
}

TEST(World, CrashedProcessBreaksConvergence) {
  app::WorldConfig cfg;
  cfg.num_clients = 2;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 5 * sim::kSecond));
  w.process(1).crash();
  EXPECT_FALSE(w.converged(w.all_members()));
  EXPECT_TRUE(w.process(1).crashed());
}

TEST(World, TraceRecordingCanBeDisabled) {
  app::WorldConfig cfg;
  cfg.num_clients = 2;
  cfg.record_trace = false;
  cfg.attach_checkers = false;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 5 * sim::kSecond));
  EXPECT_TRUE(w.trace().recorded().empty());
}

TEST(World, ToleranceWindowJudgesWithTheAttachedBundle) {
  // checkers() is the bundle on the bus: a planted violation inside the
  // window is counted there, and the same violation after it fires.
  app::WorldConfig cfg;
  cfg.num_clients = 2;
  cfg.tolerance_window = 10 * sim::kSecond;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 5 * sim::kSecond));
  const sim::Time t = w.sim().now();
  const ProcessId stranger{99};  // never blocked, so block_ok is illegal
  w.trace().emit(t, spec::FaultInjected{"corrupt_seq", "planted"});
  w.trace().emit(t, spec::GcsBlockOk{stranger});
  EXPECT_EQ(w.checkers().tolerated(), 1u);
  EXPECT_THROW(w.trace().emit(t + 11 * sim::kSecond, spec::GcsBlockOk{stranger}),
               InvariantViolation);
  EXPECT_EQ(w.checkers().tolerated(), 1u);
}

TEST(World, RejectsServerlessOrNegativeSizes) {
  app::WorldConfig cfg;
  cfg.num_servers = 0;  // clients would be assigned to server i % 0
  EXPECT_THROW(app::World{cfg}, InvariantViolation);
  cfg.num_servers = 1;
  cfg.num_clients = -1;
  EXPECT_THROW(app::World{cfg}, InvariantViolation);
  cfg.num_clients = 0;
  EXPECT_NO_THROW(app::World{cfg});
}

TEST(Process, SendReturnsAssignedUid) {
  app::WorldConfig cfg;
  cfg.num_clients = 2;
  app::World w(cfg);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 5 * sim::kSecond));
  const gcs::AppMsg m1 = w.process(0).endpoint().send("a");
  const gcs::AppMsg m2 = w.process(0).endpoint().send("b");
  EXPECT_EQ(m1.sender, ProcessId{1});
  EXPECT_LT(m1.uid, m2.uid);
}

}  // namespace
}  // namespace vsgc
