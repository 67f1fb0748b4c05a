// Unit tests for the timeout failure detector.
#include <gtest/gtest.h>

#include "membership/failure_detector.hpp"

namespace vsgc::membership {
namespace {

struct Harness {
  explicit Harness(sim::Time timeout = 250 * sim::kMillisecond)
      : fd(sim, timeout, [this]() { ++changes; }) {}

  sim::Simulator sim;
  int changes = 0;
  FailureDetector fd;
};

const net::NodeId kN1{1};
const net::NodeId kN2{2};

TEST(FailureDetector, InitialAlivenessAsConfigured) {
  Harness h;
  h.fd.monitor(kN1, true);
  h.fd.monitor(kN2, false);
  EXPECT_TRUE(h.fd.alive(kN1));
  EXPECT_FALSE(h.fd.alive(kN2));
  EXPECT_EQ(h.fd.alive_set(), std::set<net::NodeId>{kN1});
}

TEST(FailureDetector, SilenceSuspectsAfterTimeout) {
  Harness h(100 * sim::kMillisecond);
  h.fd.monitor(kN1, true);
  h.fd.start();
  h.sim.run_until(90 * sim::kMillisecond);
  EXPECT_TRUE(h.fd.alive(kN1)) << "not yet past the timeout";
  h.sim.run_until(200 * sim::kMillisecond);
  EXPECT_FALSE(h.fd.alive(kN1));
  EXPECT_EQ(h.changes, 1);
}

TEST(FailureDetector, HeartbeatsKeepNodeAlive) {
  Harness h(100 * sim::kMillisecond);
  h.fd.monitor(kN1, true);
  h.fd.start();
  for (int i = 1; i <= 20; ++i) {
    h.sim.schedule_at(i * 50 * sim::kMillisecond, [&h]() { h.fd.heard(kN1); });
  }
  h.sim.run_until(900 * sim::kMillisecond);
  EXPECT_TRUE(h.fd.alive(kN1));
  EXPECT_EQ(h.changes, 0);
}

TEST(FailureDetector, HeardResurrectsAndNotifies) {
  Harness h(50 * sim::kMillisecond);
  h.fd.monitor(kN1, true);
  h.fd.start();
  h.sim.run_until(200 * sim::kMillisecond);
  ASSERT_FALSE(h.fd.alive(kN1));
  const int changes_before = h.changes;
  h.fd.heard(kN1);
  EXPECT_TRUE(h.fd.alive(kN1));
  EXPECT_EQ(h.changes, changes_before + 1);
}

TEST(FailureDetector, UnmonitoredNodesIgnored) {
  Harness h;
  h.fd.heard(kN2);  // must not crash or notify
  EXPECT_FALSE(h.fd.alive(kN2));
  EXPECT_EQ(h.changes, 0);
}

TEST(FailureDetector, ForgetStopsMonitoring) {
  Harness h(50 * sim::kMillisecond);
  h.fd.monitor(kN1, true);
  h.fd.start();
  h.fd.forget(kN1);
  h.sim.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(h.changes, 0) << "forgotten node must not trigger suspicion";
}

TEST(FailureDetector, StopCancelsSweeps) {
  Harness h(50 * sim::kMillisecond);
  h.fd.monitor(kN1, true);
  h.fd.start();
  h.fd.stop();
  h.sim.run_until(200 * sim::kMillisecond);
  EXPECT_TRUE(h.fd.alive(kN1)) << "no sweeps after stop";
}

}  // namespace
}  // namespace vsgc::membership
