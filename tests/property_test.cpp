// Randomized property sweeps: seeded churn (crashes, recoveries, leaves and
// rejoins, multi-way partitions, healing, link flaps, drop spikes, delay
// bursts, server outages, crash-inside-delivery, concurrent traffic) followed
// by stabilization. The churn schedule comes from sim::FailureInjector, the
// same engine tools/vsgc_stress sweeps at scale — each seed is a distinct
// asynchronous schedule and a distinct fault script. Every execution runs
// with the full checker suite attached (WV/VS/TRANS_SET/SELF/MBRSHP/CLIENT
// safety) and is checked for the conditional liveness Property 4.2 at the
// end.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "app/world.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"
#include "spec/liveness_checker.hpp"

namespace vsgc {
namespace {

struct ChurnParams {
  std::uint64_t seed;
  int clients;
  int servers;
  gcs::ForwardingKind forwarding;
  double drop_probability;
  bool two_tier = false;
};

std::string PrintParams(
    const ::testing::TestParamInfo<ChurnParams>& info) {
  const auto& p = info.param;
  return "seed" + std::to_string(p.seed) + "_c" + std::to_string(p.clients) +
         "_s" + std::to_string(p.servers) +
         (p.forwarding == gcs::ForwardingKind::kSimple ? "_simple"
                                                       : "_mincopies") +
         (p.drop_probability > 0 ? "_lossy" : "_clean") +
         (p.two_tier ? "_twotier" : "");
}

app::WorldConfig MakeConfig(const ChurnParams& param) {
  app::WorldConfig cfg;
  cfg.num_clients = param.clients;
  cfg.num_servers = param.servers;
  cfg.seed = param.seed;
  cfg.forwarding = param.forwarding;
  cfg.net.drop_probability = param.drop_probability;
  if (param.two_tier) {
    // Two leader groups: first half led by p1, second half by the middle.
    cfg.sync_routing = gcs::SyncRouting::two_tier(param.clients, 2);
  }
  return cfg;
}

class ChurnProperty : public ::testing::TestWithParam<ChurnParams> {};

TEST_P(ChurnProperty, SafetyAlwaysLivenessAfterStabilization) {
  const ChurnParams param = GetParam();
  app::World w(MakeConfig(param));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond))
      << "initial convergence";

  // Churn phase: the injector draws faults and traffic from its policy.
  sim::FailureInjector injector(w.fault_target(), {}, param.seed);
  injector.run_churn();

  // Stabilization: heal everything, recover everyone, let traffic drain.
  injector.stabilize();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond))
      << "group must reconverge after stabilization";

  // Post-stabilization traffic must reach everyone.
  std::vector<int> rx(static_cast<std::size_t>(param.clients), 0);
  for (int i = 0; i < param.clients; ++i) {
    w.client(i).on_deliver(
        [&rx, i](ProcessId, const gcs::AppMsg&) { ++rx[static_cast<std::size_t>(i)]; });
  }
  w.client(0).send("final-probe");
  w.run_for(3 * sim::kSecond);
  for (int i = 0; i < param.clients; ++i) {
    EXPECT_EQ(rx[static_cast<std::size_t>(i)], 1) << "process " << i;
  }

  // Prophecy-style end-of-run checks + liveness over the recorded trace.
  w.checkers().finalize();
  EXPECT_TRUE(spec::LivenessChecker::check(w.trace().recorded()));
}

std::vector<ChurnParams> MakeSweep() {
  std::vector<ChurnParams> out;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    out.push_back({seed, 4, 1, gcs::ForwardingKind::kMinCopies, 0.0});
  }
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    out.push_back({seed, 5, 2, gcs::ForwardingKind::kMinCopies, 0.0});
  }
  for (std::uint64_t seed = 17; seed <= 20; ++seed) {
    out.push_back({seed, 4, 1, gcs::ForwardingKind::kSimple, 0.0});
  }
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    out.push_back({seed, 3, 1, gcs::ForwardingKind::kMinCopies, 0.05});
  }
  for (std::uint64_t seed = 25; seed <= 30; ++seed) {
    out.push_back(
        {seed, 6, 2, gcs::ForwardingKind::kMinCopies, 0.0, /*two_tier=*/true});
  }
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    out.push_back({seed, 8, 3, gcs::ForwardingKind::kMinCopies, 0.0});
  }
  for (std::uint64_t seed = 37; seed <= 40; ++seed) {
    out.push_back({seed, 5, 2, gcs::ForwardingKind::kSimple, 0.05});
  }
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    out.push_back(
        {seed, 6, 2, gcs::ForwardingKind::kMinCopies, 0.05, /*two_tier=*/true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Churn, ChurnProperty,
                         ::testing::ValuesIn(MakeSweep()), PrintParams);

// -- Determinism of injector-driven executions --------------------------------

struct InjectedRun {
  std::string jsonl;          ///< full recorded trace, serialized
  sim::FaultScript script;    ///< the fault schedule that was applied
};

InjectedRun RunChurn(const ChurnParams& param,
                     const sim::FaultScript* replay = nullptr) {
  app::World w(MakeConfig(param));
  w.start();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  sim::FailureInjector injector(w.fault_target(), {}, param.seed);
  if (replay != nullptr) injector.replay(*replay);
  else injector.run_churn();
  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
  std::ostringstream os;
  obs::write_jsonl(w.trace().recorded(), os);
  return {os.str(), injector.script()};
}

// Two independent worlds driven by the same seed must produce byte-identical
// JSONL traces — faults, deliveries, views, everything.
TEST(ChurnDeterminism, SameSeedByteIdenticalTrace) {
  const ChurnParams param{7, 5, 2, gcs::ForwardingKind::kMinCopies, 0.02};
  const InjectedRun a = RunChurn(param);
  const InjectedRun b = RunChurn(param);
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);
}

// Replaying the fault script recorded by a generate run reproduces the exact
// execution: the repro bundles vsgc_stress emits are faithful by construction.
TEST(ChurnDeterminism, GenerateThenReplayByteIdenticalTrace) {
  const ChurnParams param{13, 4, 1, gcs::ForwardingKind::kMinCopies, 0.0};
  const InjectedRun generated = RunChurn(param);
  ASSERT_FALSE(generated.script.ops.empty());
  const InjectedRun replayed = RunChurn(param, &generated.script);
  EXPECT_EQ(generated.jsonl, replayed.jsonl);
}

}  // namespace
}  // namespace vsgc
