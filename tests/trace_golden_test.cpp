// Golden traces: a 64-bit FNV-1a digest of the write_jsonl output of a fixed
// list of seeded runs. An execution is a pure function of (code, seed), so a
// change that is meant to leave behaviour alone (a refactor or a
// performance change) must leave every digest below as it is. Every trace
// here serializes views in its gcs_view and mbr_view lines, so a change to
// how a View is stored, compared or written shows up here.
//
// The digests were generated on the commit before views became shared
// immutable values (DESIGN.md §11.5), from that commit's sources, and pass
// unchanged on both sides of that change. A change that alters behaviour on
// purpose regenerates them and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "app/world.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"

namespace vsgc {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string jsonl(app::World& w) {
  std::ostringstream os;
  obs::write_jsonl(w.trace().recorded(), os);
  return os.str();
}

/// Fault-free: 8 clients and 2 servers form one view, everyone multicasts,
/// client 8 leaves, the other seven reconverge and multicast again. The
/// causal span events are on, so the trace carries every event kind a
/// fault-free view change emits.
std::string fault_free_view_change() {
  app::WorldConfig wc;
  wc.num_clients = 8;
  wc.num_servers = 2;
  wc.seed = 5;
  wc.lifecycle_spans = true;
  app::World w(wc);
  w.start();
  const std::set<ProcessId> all = w.all_members();
  EXPECT_TRUE(w.run_until_converged(all, 10 * sim::kSecond));
  for (int i = 0; i < w.num_clients(); ++i) {
    w.client(i).send("a" + std::to_string(i));
  }
  w.run_for(100 * sim::kMillisecond);
  std::set<ProcessId> rest = all;
  rest.erase(w.process(7).id());
  w.process(7).leave();
  EXPECT_TRUE(w.run_until_converged(rest, 10 * sim::kSecond));
  for (int i = 0; i < 7; ++i) w.client(i).send("b" + std::to_string(i));
  w.run_for(sim::kSecond);
  w.finalize_checkers();
  return jsonl(w);
}

/// vsgc_stress's per-seed recipe (4 clients, 2 servers, 15 churn steps),
/// judged by the exact checkers; with `corrupt`, `vsgc_stress --corrupt`'s
/// recipe instead: corruption ops in the churn and a 30 s tolerance window.
/// Sets `tolerated` to the violations the checkers tolerated.
std::string churn_seed(std::uint64_t seed, bool corrupt,
                       std::uint64_t* tolerated) {
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.num_servers = 2;
  wc.seed = seed;
  if (corrupt) wc.tolerance_window = 30 * sim::kSecond;
  app::World w(wc);
  sim::FailureInjector::Policy policy;
  policy.steps = 15;
  if (corrupt) {
    policy.w_corrupt = 6;
    policy.bug_is_corruption = true;
  }
  sim::FailureInjector injector(w.fault_target(), policy, seed);
  w.start();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  injector.run_churn();
  w.stabilize_and_check(injector, "stress-probe-" + std::to_string(seed));
  *tolerated = w.checkers().tolerated();
  return jsonl(w);
}

TEST(TraceGolden, FaultFreeEightClientViewChange) {
  const std::string t = fault_free_view_change();
  ASSERT_NE(t.find("\"gcs_view\""), std::string::npos);
  EXPECT_EQ(hex(fnv1a64(t)), "0xb488cfad90457b19");
}

TEST(TraceGolden, ChurnSeedUnderExactCheckers) {
  std::uint64_t tolerated = 0;
  const std::string t = churn_seed(17, /*corrupt=*/false, &tolerated);
  ASSERT_NE(t.find("\"mbr_view\""), std::string::npos);
  EXPECT_EQ(tolerated, 0u);
  EXPECT_EQ(hex(fnv1a64(t)), "0xceca460823ae464d");
}

// Seed 306 is one of the three seeds below 1000 whose corruption reaches
// the tolerance path (it tolerates 1 violation: each WV_RFIFO violation
// counts once, since the VS_RFIFO and SELF checkers never see it).
TEST(TraceGolden, CorruptionSeedUnderToleranceWindow) {
  std::uint64_t tolerated = 0;
  const std::string t = churn_seed(306, /*corrupt=*/true, &tolerated);
  ASSERT_NE(t.find("\"gcs_view\""), std::string::npos);
  EXPECT_EQ(tolerated, 1u);
  EXPECT_EQ(hex(fnv1a64(t)), "0xbbe23c060ee6af10");
}

}  // namespace
}  // namespace vsgc
