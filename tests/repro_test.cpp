// The shared repro pipeline (app/repro.hpp): the greedy minimizer against
// synthetic predicates, and bundle round trips — write a planted violation's
// bundle, replay it, and require the violation with a byte-identical trace —
// for a small stress recipe (sim::FaultScript) and an mc scenario
// (mc::ScheduleScript).
#include "app/repro.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "mc/explorer.hpp"
#include "obs/json.hpp"
#include "sim/failure_injector.hpp"

namespace vsgc {
namespace {

namespace fs = std::filesystem;

std::vector<std::size_t> indices(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

// ------------------------------------------------------------- minimizer

TEST(GreedyElide, KeepsTheOneRequiredIndex) {
  const std::set<std::size_t> elided =
      app::greedy_elide(indices(5), [](const std::set<std::size_t>& t) {
        return !t.contains(2);
      });
  EXPECT_EQ(elided, (std::set<std::size_t>{0, 1, 3, 4}));
}

TEST(GreedyElide, KeepsBothRequiredIndices) {
  const std::set<std::size_t> elided =
      app::greedy_elide(indices(6), [](const std::set<std::size_t>& t) {
        return !t.contains(1) && !t.contains(4);
      });
  EXPECT_EQ(elided, (std::set<std::size_t>{0, 2, 3, 5}));
}

TEST(GreedyElide, TakesAnElisionThatOnlySucceedsOnTheSecondPass) {
  // Index 0 may go only once index 3 is gone, which the first pass reaches
  // after it has already tried 0.
  int probes = 0;
  const std::set<std::size_t> elided =
      app::greedy_elide(indices(5), [&](const std::set<std::size_t>& t) {
        ++probes;
        return !t.contains(0) || t.contains(3);
      });
  EXPECT_EQ(elided, (std::set<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(probes, 6) << "pass 1 tries all five, pass 2 only index 0";
}

TEST(GreedyElide, StopsAfterThreePasses) {
  // A chain: index i may go only once index i+1 is gone, so each pass
  // elides one more from the back; the fourth never runs.
  const std::set<std::size_t> elided =
      app::greedy_elide(indices(4), [](const std::set<std::size_t>& t) {
        for (const std::size_t i : t) {
          if (i + 1 < 4 && !t.contains(i + 1)) return false;
        }
        return true;
      });
  EXPECT_EQ(elided, (std::set<std::size_t>{1, 2, 3}));
}

TEST(GreedyElide, OnlyTriesTheCandidates) {
  std::set<std::size_t> seen;
  const std::set<std::size_t> elided = app::greedy_elide(
      {1, 3}, [&](const std::set<std::size_t>& t) {
        seen.insert(t.begin(), t.end());
        return true;
      });
  EXPECT_EQ(elided, (std::set<std::size_t>{1, 3}));
  EXPECT_EQ(seen, (std::set<std::size_t>{1, 3}));
}

// ------------------------------------------------------- bundle helpers

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vsgc_repro_" + name);
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Replays `dir` with --expect-violation semantics; returns the exit code
/// and leaves stdout in `*out`.
template <class Tool>
int replay(const fs::path& dir, std::string* out) {
  std::ostringstream os;
  std::ostringstream err;
  const int rc =
      app::replay_bundle<Tool>(dir, /*expect_violation=*/true, os, err);
  *out = os.str() + err.str();
  return rc;
}

// ---------------------------------------------------- stress recipe

/// A small planted stress recipe: 3 clients, 1 server, 8 churn steps with
/// the planted bug at step 4 (the dup-delivery forgery, or the view-epoch
/// wedge under `corrupt`), then World::stabilize_and_check.
struct PlantedConfig {
  std::uint64_t seed = 3;
  bool corrupt = false;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("seed", s.seed)("corrupt", s.corrupt);
  }
};

using StressRun = app::RunResult<sim::FaultScript>;

StressRun planted_run(const PlantedConfig& cfg,
                      const sim::FaultScript* replay = nullptr,
                      const std::set<std::size_t>& elide = {}) {
  app::WorldConfig wc;
  wc.num_clients = 3;
  wc.num_servers = 1;
  wc.seed = cfg.seed;
  if (cfg.corrupt) wc.tolerance_window = 30 * sim::kSecond;
  app::World w(wc);
  sim::FailureInjector::Policy policy;
  policy.steps = 8;
  policy.bug_at_step = 4;
  policy.bug_is_corruption = cfg.corrupt;
  // No crash or recover: a recovery would reset a wedged end-point.
  policy.w_crash = 0;
  policy.w_recover = 0;
  policy.w_crash_in_delivery = 0;
  sim::FailureInjector injector(w.fault_target(), policy, cfg.seed);
  StressRun result = app::checked_run<sim::FaultScript>(w, [&] {
    w.start();
    if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
      throw InvariantViolation("initial convergence failed");
    }
    if (replay != nullptr) injector.replay(*replay, elide);
    else injector.run_churn();
    w.stabilize_and_check(injector, "probe");
  });
  result.script = injector.script();
  return result;
}

struct PlantedRepro {
  using Config = PlantedConfig;
  using Script = sim::FaultScript;
  static constexpr const char* kConfigFile = "config.json";
  static constexpr const char* kScriptStem = "fault_script";
  static constexpr const char* kUnit = "ops";

  static StressRun run(const PlantedConfig& c, const sim::FaultScript& s) {
    return planted_run(c, &s);
  }
  static StressRun minimize(const PlantedConfig& c,
                            const sim::FaultScript& s) {
    const std::set<std::size_t> elided = app::greedy_elide(
        indices(s.ops.size()), [&](const std::set<std::size_t>& t) {
          return planted_run(c, &s, t).violation;
        });
    return planted_run(c, &s, elided);
  }
  static std::size_t size(const sim::FaultScript& s) { return s.ops.size(); }
  static std::string check(const PlantedConfig&, const sim::FaultScript& s) {
    return s.fits(3, 1) ? "" : "op outside the world";
  }
};

void expect_stress_round_trip(const PlantedConfig& cfg, const std::string& name,
                              bool minimize) {
  const StressRun failed = planted_run(cfg);
  ASSERT_TRUE(failed.violation) << "the planted bug must be caught";
  const fs::path dir = fresh_dir(name);
  std::ostringstream err;
  EXPECT_TRUE(app::write_bundle<PlantedRepro>(dir, cfg, failed, minimize, err));
  for (const char* f : {"config.json", "fault_script.json", "trace.jsonl",
                        "snapshot.json", "violation.txt"}) {
    EXPECT_TRUE(fs::exists(dir / f)) << f;
  }
  EXPECT_EQ(fs::exists(dir / "fault_script.min.json"), minimize);
  EXPECT_EQ(read_file(dir / "trace.jsonl"), app::render_trace(failed.trace));

  std::string out;
  EXPECT_EQ(replay<PlantedRepro>(dir, &out), 0) << out;
  EXPECT_NE(out.find("reproduces the violation"), std::string::npos) << out;
  EXPECT_NE(out.find("byte-identical"), std::string::npos) << out;
}

TEST(ReproBundle, StressDupDeliveryRoundTrips) {
  expect_stress_round_trip({3, false}, "stress_dup", /*minimize=*/true);
}

TEST(ReproBundle, StressWedgeRoundTripsWithAndWithoutMinimizing) {
  expect_stress_round_trip({3, true}, "stress_wedge", /*minimize=*/true);
  expect_stress_round_trip({3, true}, "stress_wedge_full", /*minimize=*/false);
}

TEST(ReproBundle, SnapshotHoldsTheFailingWorldsLayerCounters) {
  const StressRun failed = planted_run({3, true});
  ASSERT_TRUE(failed.violation);
  const fs::path dir = fresh_dir("stress_snapshot");
  std::ostringstream err;
  app::write_bundle<PlantedRepro>(dir, PlantedConfig{3, true}, failed,
                                  /*minimize=*/false, err);
  EXPECT_EQ(read_file(dir / "snapshot.json"),
            failed.snapshot.to_json().dump_pretty() + "\n");
  EXPECT_GT(failed.snapshot.counter_total("net.packets_sent"), 0u);
  EXPECT_GT(failed.snapshot.counter_total("xport.frame.frames_sent"), 0u);

  // A clean run leaves the snapshot empty.
  app::World w(app::WorldConfig{});
  const StressRun ok = app::checked_run<sim::FaultScript>(w, [] {});
  EXPECT_FALSE(ok.violation);
  EXPECT_EQ(ok.snapshot.to_json().dump(), obs::Registry{}.to_json().dump());
}

TEST(ReproBundle, ReplayRefusesMalformedBundlesAndFlagsADivergentTrace) {
  const PlantedConfig cfg{3, true};
  const StressRun failed = planted_run(cfg);
  ASSERT_TRUE(failed.violation);
  const fs::path dir = fresh_dir("stress_malformed");
  std::ostringstream err;
  app::write_bundle<PlantedRepro>(dir, cfg, failed, /*minimize=*/false, err);
  std::string out;

  // A trace that differs from what the replay produces: the violation
  // reproduces, but the replay fails.
  const std::string trace = read_file(dir / "trace.jsonl");
  std::ofstream(dir / "trace.jsonl", std::ios::binary)
      << trace.substr(0, trace.size() / 2);
  EXPECT_EQ(replay<PlantedRepro>(dir, &out), 1) << out;
  EXPECT_NE(out.find("DIFFERS"), std::string::npos) << out;

  // No trace at all, a script without end_at, an op outside the world and
  // an unparsable config are malformed bundles: exit 2.
  fs::remove(dir / "trace.jsonl");
  EXPECT_EQ(replay<PlantedRepro>(dir, &out), 2) << out;
  std::ofstream(dir / "trace.jsonl", std::ios::binary) << trace;
  ASSERT_EQ(replay<PlantedRepro>(dir, &out), 0) << out;

  const std::string script = read_file(dir / "fault_script.json");
  obs::JsonValue j = obs::to_json(failed.script);
  obs::JsonValue without_end = obs::JsonValue::object();
  for (const auto& [key, value] : j.members()) {
    if (key != "end_at") without_end[key] = value;
  }
  std::ofstream(dir / "fault_script.json", std::ios::binary)
      << without_end.dump();
  EXPECT_EQ(replay<PlantedRepro>(dir, &out), 2) << out;

  sim::FaultScript outside = failed.script;
  sim::FaultOp crash;
  crash.at = outside.ops.back().at;
  crash.kind = sim::FaultOp::Kind::kCrash;
  crash.a = 99;
  outside.ops.push_back(crash);
  std::ofstream(dir / "fault_script.json", std::ios::binary)
      << obs::to_json(outside).dump();
  EXPECT_EQ(replay<PlantedRepro>(dir, &out), 2) << out;
  std::ofstream(dir / "fault_script.json", std::ios::binary) << script;

  std::ofstream(dir / "config.json", std::ios::binary) << R"({"seed":"x"})";
  EXPECT_EQ(replay<PlantedRepro>(dir, &out), 2) << out;
}

// ------------------------------------------------------------ mc scenario

TEST(ReproBundle, McPlantedScenarioRoundTrips) {
  mc::ScenarioConfig sc;
  sc.clients = 3;
  sc.servers = 1;
  sc.messages = 1;
  sc.inject_bug = true;
  sc.fault_slots = 1;
  const std::size_t bug_pick = mc::fault_menu(sc).size();  // last entry
  mc::RunResult failed;
  // The fault slot's choice point sits after the scenario's tie-breaks;
  // force the bug at the first "mc.fault" point the default run consumed.
  const mc::RunResult base = mc::run_scenario(sc, {});
  std::vector<std::uint32_t> picks;
  for (const mc::Choice& c : base.script.choices) {
    if (c.kind == "mc.fault") {
      picks.push_back(static_cast<std::uint32_t>(bug_pick));
      break;
    }
    picks.push_back(0);
  }
  failed = mc::run_scenario(sc, picks);
  ASSERT_TRUE(failed.violation) << "the planted bug must be caught";

  const fs::path dir = fresh_dir("mc_dup");
  std::ostringstream err;
  EXPECT_TRUE(app::write_bundle<mc::ScenarioRepro>(dir, sc, failed,
                                                   /*minimize=*/true, err));
  for (const char* f : {"scenario.json", "schedule.json", "schedule.min.json",
                        "trace.jsonl", "trace.min.jsonl", "snapshot.json",
                        "violation.txt"}) {
    EXPECT_TRUE(fs::exists(dir / f)) << f;
  }
  EXPECT_NE(read_file(dir / "violation.txt").find("-> 1 deviation(s)"),
            std::string::npos);
  std::string out;
  EXPECT_EQ(replay<mc::ScenarioRepro>(dir, &out), 0) << out;
  EXPECT_NE(out.find("byte-identical"), std::string::npos) << out;

  // The mc validation hook: a serverless scenario is a malformed bundle.
  mc::ScenarioConfig bad = sc;
  bad.servers = 0;
  std::ofstream(dir / "scenario.json", std::ios::binary)
      << obs::to_json(bad).dump();
  EXPECT_EQ(replay<mc::ScenarioRepro>(dir, &out), 2) << out;
}

}  // namespace
}  // namespace vsgc
