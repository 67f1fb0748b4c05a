// The simulation contract every property sweep relies on: an execution is a
// pure function of its seed. Same seed => identical event trace; different
// seed => (almost surely) different schedule.
#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "app/world.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"

namespace vsgc {
namespace {

std::string run_and_fingerprint(std::uint64_t seed) {
  app::WorldConfig cfg;
  cfg.num_clients = 4;
  cfg.num_servers = 2;
  cfg.seed = seed;
  cfg.net.jitter = 500;
  cfg.net.drop_probability = 0.1;
  app::World w(cfg);
  w.start();
  w.run_until_converged(w.all_members(), 10 * sim::kSecond);
  for (int i = 0; i < 4; ++i) {
    w.client(i).send("m" + std::to_string(i));
  }
  w.process(3).crash();
  w.run_for(5 * sim::kSecond);
  w.process(3).recover();
  w.run_for(10 * sim::kSecond);

  std::ostringstream os;
  for (const auto& ev : w.trace().recorded()) {
    os << ev.at << ":" << ev.body.index() << ";";
    if (const auto* d = std::get_if<spec::GcsDeliver>(&ev.body)) {
      os << to_string(d->p) << to_string(d->q) << d->msg.uid << ";";
    } else if (const auto* v = std::get_if<spec::GcsView>(&ev.body)) {
      os << to_string(v->p) << to_string(v->view) << ";";
    }
  }
  return os.str();
}

TEST(Determinism, SameSeedSameTrace) {
  const std::string a = run_and_fingerprint(42);
  const std::string b = run_and_fingerprint(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "executions must be pure functions of the seed";
}

TEST(Determinism, DifferentSeedDifferentSchedule) {
  EXPECT_NE(run_and_fingerprint(42), run_and_fingerprint(43));
}

struct BatchedRun {
  std::string jsonl;
  transport::CoRfifoTransport::Stats clients;  ///< summed over the clients
};

BatchedRun run_batched(std::uint64_t seed) {
  // Lossy bursts larger than the credit window, so frame packing,
  // piggybacking, credit stalls and retransmit backoff all engage. The
  // recorded JSONL (with lifecycle spans) must still be a pure function of
  // the seed.
  constexpr std::size_t kBurst = transport::CoRfifoTransport::kSendWindow + 64;
  app::WorldConfig cfg;
  cfg.num_clients = 3;
  cfg.seed = seed;
  cfg.net.jitter = 300;
  cfg.net.drop_probability = 0.05;
  cfg.lifecycle_spans = true;
  app::World w(cfg);
  w.start();
  w.run_until_converged(w.all_members(), 10 * sim::kSecond);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      for (std::size_t k = 0; k < kBurst; ++k) {
        w.client(i).send("b" + std::to_string(round) + "." +
                         std::to_string(i) + "." + std::to_string(k));
      }
    }
    w.run_for(50 * sim::kMillisecond);
  }
  w.run_for(2 * sim::kSecond);
  w.check_transport_bounded();
  BatchedRun run;
  std::ostringstream os;
  obs::write_jsonl(w.trace().recorded(), os);
  run.jsonl = os.str();
  for (int i = 0; i < 3; ++i) {
    const auto& st = w.process(i).transport().stats();
    run.clients.window_stalls += st.window_stalls;
    run.clients.acks_piggybacked += st.acks_piggybacked;
    run.clients.retransmissions += st.retransmissions;
  }
  return run;
}

TEST(Determinism, BatchedDataPlaneTraceIsByteIdentical) {
  const BatchedRun a = run_batched(7);
  const BatchedRun b = run_batched(7);
  EXPECT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl)
      << "frame packing must not leak nondeterminism into the trace";
  EXPECT_GT(a.clients.window_stalls, 0u) << "bursts must hit the credit window";
  EXPECT_GT(a.clients.acks_piggybacked, 0u);
  EXPECT_GT(a.clients.retransmissions, 0u) << "loss must fire the timer";
}

// A corruption churn run (state mutators + the traffic that exposes them +
// the recovery machinery they trigger) is still a pure function of the seed,
// and replaying its recorded script reproduces the run byte for byte — the
// contract vsgc_stress's corruption bundles and their minimizer rely on.
std::string corruption_churn_jsonl(std::uint64_t injector_seed,
                                   sim::FaultScript* out_script,
                                   const sim::FaultScript* replay) {
  app::WorldConfig cfg;
  cfg.num_clients = 4;
  cfg.num_servers = 2;
  cfg.seed = 11;
  cfg.tolerance_window = 30 * sim::kSecond;
  app::World w(cfg);
  w.start();
  w.run_until_converged(w.all_members(), 10 * sim::kSecond);

  sim::FailureInjector::Policy policy;
  policy.steps = 12;
  policy.w_traffic = 6;
  policy.w_crash = 0;
  policy.w_recover = 0;
  policy.w_leave = 0;
  policy.w_rejoin = 0;
  policy.w_partition = 0;
  policy.w_heal = 0;
  policy.w_link = 0;
  policy.w_drop_spike = 0;
  policy.w_delay_burst = 0;
  policy.w_server_outage = 0;
  policy.w_crash_in_delivery = 0;
  policy.w_partition_in_view_change = 0;
  policy.w_corrupt = 10;
  sim::FailureInjector injector(w.fault_target(), policy, injector_seed);
  if (replay != nullptr) {
    injector.replay(*replay);
  } else {
    injector.run_churn();
  }
  if (out_script != nullptr) *out_script = injector.script();
  injector.stabilize();
  w.run_for(10 * sim::kSecond);

  std::ostringstream os;
  obs::write_jsonl(w.trace().recorded(), os);
  return os.str();
}

TEST(Determinism, CorruptionChurnTraceIsByteIdentical) {
  const std::string a = corruption_churn_jsonl(13, nullptr, nullptr);
  const std::string b = corruption_churn_jsonl(13, nullptr, nullptr);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b)
      << "state corruption must not leak nondeterminism into the trace";
}

TEST(Determinism, CorruptionScriptReplayReproducesTheTrace) {
  sim::FaultScript script;
  const std::string generated = corruption_churn_jsonl(13, &script, nullptr);
  bool saw_corrupt = false;
  for (const sim::FaultOp& op : script.ops) {
    if (std::string_view(op.name()).starts_with("corrupt_")) {
      saw_corrupt = true;
    }
  }
  EXPECT_TRUE(saw_corrupt) << "the policy must have drawn corruption ops";
  const std::string replayed = corruption_churn_jsonl(13, nullptr, &script);
  EXPECT_EQ(generated, replayed)
      << "replaying the recorded corruption script must reproduce the run";
}

}  // namespace
}  // namespace vsgc
