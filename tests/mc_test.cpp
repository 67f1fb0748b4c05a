// Tests for the model-checking subsystem: the controllable-nondeterminism
// seams (sim tie-breaks, network loss/jitter), the recording controllers,
// ScheduleScript JSON, and the bounded explorer end to end (planted-bug
// search, schedule minimization, byte-identical replay).
#include <gtest/gtest.h>

#include <any>
#include <sstream>
#include <string>
#include <vector>

#include "mc/controller.hpp"
#include "mc/explorer.hpp"
#include "mc/schedule_script.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"
#include "obs/json_fields.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/simulator.hpp"

namespace vsgc::mc {
namespace {

std::string render(const std::vector<spec::Event>& trace) {
  std::ostringstream os;
  obs::write_jsonl(trace, os);
  return os.str();
}

/// Builds a forced-pick controller; disambiguates the vector constructor
/// from brace-init of a ScheduleScript.
ScriptController forced(std::vector<std::uint32_t> picks) {
  return ScriptController(std::move(picks));
}

// ---------------------------------------------------------------------------
// Simulator tie-break seam
// ---------------------------------------------------------------------------

std::vector<int> run_three_equal_events(ScriptController& ctl) {
  sim::Simulator sim;
  sim.set_nondet(&ctl);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run_to_quiescence();
  return order;
}

TEST(SimTiebreakSeam, DefaultPicksKeepInsertionOrder) {
  ScriptController ctl;  // empty vector: every pick defaults to 0
  EXPECT_EQ(run_three_equal_events(ctl), (std::vector<int>{0, 1, 2}));
  // Two choice points: one among 3 events, then one among the remaining 2.
  ASSERT_EQ(ctl.consumed(), 2u);
  EXPECT_EQ(ctl.trace()[0].kind, "sim.tiebreak");
  EXPECT_EQ(ctl.trace()[0].n, 3u);
  EXPECT_EQ(ctl.trace()[1].n, 2u);
}

TEST(SimTiebreakSeam, ForcedPickReordersEqualTimestamps) {
  ScriptController ctl = forced({2});
  // Pick 2 fires the last-inserted event first; the rest keep their order.
  EXPECT_EQ(run_three_equal_events(ctl), (std::vector<int>{2, 0, 1}));
}

TEST(SimTiebreakSeam, DistinctTimestampsAreNotChoicePoints) {
  sim::Simulator sim;
  ScriptController ctl;
  sim.set_nondet(&ctl);
  for (int i = 0; i < 3; ++i) sim.schedule(10 * (i + 1), [] {});
  sim.run_to_quiescence();
  EXPECT_EQ(ctl.consumed(), 0u);
}

TEST(SimTiebreakSeam, DetachRestoresUncontrolledBehavior) {
  sim::Simulator sim;
  ScriptController ctl = forced({1});
  sim.set_nondet(&ctl);
  sim.set_nondet(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run_to_quiescence();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(ctl.consumed(), 0u);
}

// ---------------------------------------------------------------------------
// Network loss/jitter seam
// ---------------------------------------------------------------------------

struct NetHarness {
  explicit NetHarness(net::Network::Config cfg)
      : network(sim, Rng(1), cfg) {
    network.attach(net::NodeId{2},
                   [this](net::NodeId, const std::any&) { ++delivered; });
  }
  sim::Simulator sim;
  net::Network network;
  int delivered = 0;
};

TEST(NetworkSeam, DropChoiceControlsPacketLoss) {
  net::Network::Config cfg;
  cfg.drop_probability = 0.5;  // nonzero: every send is a "net.drop" choice
  cfg.jitter = 0;
  NetHarness h(cfg);
  ScriptController ctl = forced({1, 0});  // first packet dropped, second delivered
  h.network.set_nondet(&ctl);
  h.network.send(net::NodeId{1}, net::NodeId{2}, std::string("a"), 1);
  h.network.send(net::NodeId{1}, net::NodeId{2}, std::string("b"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.delivered, 1);
  EXPECT_EQ(h.network.stats().packets_dropped, 1u);
  ASSERT_EQ(ctl.consumed(), 2u);
  EXPECT_EQ(ctl.trace()[0].kind, "net.drop");
}

TEST(NetworkSeam, JitterChoiceSelectsBoundaryDelays) {
  net::Network::Config cfg;
  cfg.base_latency = 1 * sim::kMillisecond;
  cfg.jitter = 900;
  NetHarness h(cfg);
  sim::Time arrival = 0;
  h.network.attach(net::NodeId{3}, [&](net::NodeId, const std::any&) {
    arrival = h.sim.now();
  });
  ScriptController ctl = forced({1});  // maximum jitter
  h.network.set_nondet(&ctl);
  h.network.send(net::NodeId{1}, net::NodeId{3}, std::string("x"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(arrival, 1 * sim::kMillisecond + 900);
  ASSERT_EQ(ctl.consumed(), 1u);
  EXPECT_EQ(ctl.trace()[0].kind, "net.jitter");

  // Default pick: minimum delay.
  ScriptController ctl2;
  h.network.set_nondet(&ctl2);
  h.network.send(net::NodeId{1}, net::NodeId{3}, std::string("y"), 1);
  const sim::Time sent_at = h.sim.now();
  h.sim.run_to_quiescence();
  EXPECT_EQ(arrival, sent_at + 1 * sim::kMillisecond);
}

TEST(NetworkSeam, ZeroDropProbabilityConsultsNoDropChoice) {
  net::Network::Config cfg;
  cfg.jitter = 0;
  NetHarness h(cfg);
  ScriptController ctl = forced({1, 1, 1});
  h.network.set_nondet(&ctl);
  h.network.send(net::NodeId{1}, net::NodeId{2}, std::string("x"), 1);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.delivered, 1);
  EXPECT_EQ(ctl.consumed(), 0u) << "no loss or jitter: nothing to choose";
}

// ---------------------------------------------------------------------------
// Controllers and ScheduleScript
// ---------------------------------------------------------------------------

TEST(Controllers, SingleAlternativeIsNotRecorded) {
  ScriptController ctl = forced({1, 1});
  EXPECT_EQ(ctl.choose("x", 1), 0u);
  EXPECT_EQ(ctl.consumed(), 0u);
  EXPECT_EQ(ctl.choose("x", 2), 1u);
  EXPECT_EQ(ctl.consumed(), 1u);
}

TEST(Controllers, OutOfRangePicksClampToLastAlternative) {
  ScriptController ctl = forced({7});
  EXPECT_EQ(ctl.choose("x", 3), 2u);
  // The clamped value is what gets recorded — replaying the recorded script
  // reproduces the run even though the requested pick was invalid.
  EXPECT_EQ(ctl.trace()[0].pick, 2u);
}

TEST(Controllers, RandomControllerIsDeterministicPerSeed) {
  std::vector<std::uint32_t> a, b;
  for (int round = 0; round < 2; ++round) {
    RandomController ctl(42);
    for (int i = 0; i < 16; ++i) ctl.choose("x", 5);
    for (const Choice& c : ctl.trace()) {
      (round == 0 ? a : b).push_back(c.pick);
    }
  }
  EXPECT_EQ(a, b);
}

TEST(ScheduleScriptJson, RoundTripsThroughJson) {
  ScheduleScript script;
  script.seed = 99;
  script.choices = {{"sim.tiebreak", 3, 1}, {"net.drop", 2, 0},
                    {"mc.fault", 8, 7}};
  EXPECT_EQ(script.deviations(), 2u);
  EXPECT_EQ(script.picks(), (std::vector<std::uint32_t>{1, 0, 7}));

  std::ostringstream os;
  obs::to_json(script).write_pretty(os);
  std::string error;
  const obs::JsonValue parsed = obs::JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ScheduleScript back;
  ASSERT_TRUE(obs::from_json(parsed, &back));
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.choices, script.choices);
}

TEST(ScheduleScriptJson, RejectsMalformedDocuments) {
  ScheduleScript out;
  std::string error;
  EXPECT_FALSE(obs::from_json(
      obs::JsonValue::parse("[1,2]", &error), &out));
  EXPECT_FALSE(obs::from_json(
      obs::JsonValue::parse(R"({"choices": []})", &error), &out));
  EXPECT_FALSE(obs::from_json(
      obs::JsonValue::parse(R"({"seed": 1, "choices": [{"kind": "x"}]})",
                            &error),
      &out));
}

// ---------------------------------------------------------------------------
// Scenario executions
// ---------------------------------------------------------------------------

ScenarioConfig tiny_scenario() {
  ScenarioConfig sc;
  sc.clients = 3;
  sc.messages = 2;
  return sc;
}

TEST(Scenario, DefaultScheduleRunsCleanAndIsReplayable) {
  const ScenarioConfig sc = tiny_scenario();
  const RunResult a = run_scenario(sc, {});
  EXPECT_FALSE(a.violation) << a.what;
  EXPECT_GT(a.script.choices.size(), 0u) << "view change must hit tie-breaks";
  EXPECT_EQ(a.script.deviations(), 0u);

  const RunResult b = run_scenario(sc, {});
  EXPECT_EQ(render(a.trace), render(b.trace)) << "must be byte-identical";
  EXPECT_EQ(a.script.choices, b.script.choices);
}

TEST(Scenario, ForcedDeviationReplaysByteIdentically) {
  const ScenarioConfig sc = tiny_scenario();
  const RunResult base = run_scenario(sc, {});
  ASSERT_GT(base.script.choices.size(), 0u);
  // Deviate at the first choice point, then replay the recorded script.
  const RunResult dev = run_scenario(sc, {1});
  EXPECT_FALSE(dev.violation) << dev.what;
  const RunResult replay = run_scenario(sc, dev.script.picks());
  EXPECT_EQ(render(dev.trace), render(replay.trace));
}

TEST(Scenario, ClampedPicksCollapseToTheSameExecution) {
  // Pick 99 at a choice point with n alternatives clamps to n-1: the two
  // prefixes decode to identical consumed-choice sequences — the collision
  // the explorer's state-hash dedup collapses.
  const ScenarioConfig sc = tiny_scenario();
  const RunResult base = run_scenario(sc, {});
  ASSERT_GT(base.script.choices.size(), 0u);
  const std::uint32_t n = base.script.choices[0].n;
  const RunResult clamped = run_scenario(sc, {99});
  const RunResult last = run_scenario(sc, {n - 1});
  EXPECT_EQ(clamped.script.choices, last.script.choices);
  EXPECT_EQ(render(clamped.trace), render(last.trace));
}

TEST(Scenario, FaultSlotPicksInjectFromTheMenu) {
  ScenarioConfig sc = tiny_scenario();
  sc.fault_slots = 1;
  const std::vector<sim::FaultOp> menu = fault_menu(sc);
  ASSERT_EQ(menu.size(), 6u);  // 3 crashes + 3 one-way link-downs
  EXPECT_EQ(menu[0].kind, sim::FaultOp::Kind::kCrash);
  EXPECT_TRUE(menu[3].oneway);

  // Find the fault decision point in the default run and force a crash of
  // process 0 (menu slot 0 => pick 1). The run must survive: stabilize()
  // recovers the crash and liveness still holds.
  const RunResult base = run_scenario(sc, {});
  std::size_t fault_at = base.script.choices.size();
  for (std::size_t i = 0; i < base.script.choices.size(); ++i) {
    if (base.script.choices[i].kind == "mc.fault") {
      fault_at = i;
      break;
    }
  }
  ASSERT_LT(fault_at, base.script.choices.size());
  EXPECT_EQ(base.script.choices[fault_at].n, menu.size() + 1);

  std::vector<std::uint32_t> picks(fault_at, 0);
  picks.push_back(1);
  const RunResult crashed = run_scenario(sc, picks);
  EXPECT_FALSE(crashed.violation) << crashed.what;
  EXPECT_NE(render(crashed.trace), render(base.trace))
      << "the forced crash must be observable in the trace";
}

TEST(Scenario, CorruptionMenuExtendsTheFaultVocabulary) {
  ScenarioConfig sc = tiny_scenario();
  sc.fault_slots = 1;
  sc.corruption = true;
  const std::vector<sim::FaultOp> menu = fault_menu(sc);
  ASSERT_EQ(menu.size(), 11u);  // 6 base entries + 5 corruption kinds
  EXPECT_EQ(menu[6].kind, sim::FaultOp::Kind::kCorruptSeq);
  EXPECT_EQ(menu[7].kind, sim::FaultOp::Kind::kCorruptAck);
  EXPECT_EQ(menu[8].kind, sim::FaultOp::Kind::kCorruptReliable);
  EXPECT_EQ(menu[9].kind, sim::FaultOp::Kind::kCorruptView);
  EXPECT_EQ(menu[10].kind, sim::FaultOp::Kind::kCorruptBackoff);

  // The flag participates in the scenario JSON round-trip: a violation
  // bundle's scenario.json must rebuild the tolerance-window world.
  std::ostringstream os;
  obs::to_json(sc).write_pretty(os);
  std::string error;
  const obs::JsonValue parsed = obs::JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ScenarioConfig back;
  ASSERT_TRUE(obs::from_json(parsed, &back));
  EXPECT_TRUE(back.corruption);
}

TEST(Scenario, ForcedCorruptionPicksRecoverUnderTheEventualBundle) {
  ScenarioConfig sc = tiny_scenario();
  sc.fault_slots = 1;
  sc.corruption = true;
  const RunResult base = run_scenario(sc, {});
  EXPECT_FALSE(base.violation) << base.what;
  std::size_t fault_at = base.script.choices.size();
  for (std::size_t i = 0; i < base.script.choices.size(); ++i) {
    if (base.script.choices[i].kind == "mc.fault") {
      fault_at = i;
      break;
    }
  }
  ASSERT_LT(fault_at, base.script.choices.size());
  ASSERT_EQ(base.script.choices[fault_at].n, 12u);  // none + 11 menu entries

  // Force each recoverable corruption (menu slots 6..10 => picks 7..11): the
  // stack's detection + recovery paths must reconverge inside the tolerance
  // window, so none of them reads as a violation.
  for (std::uint32_t pick = 7; pick <= 11; ++pick) {
    std::vector<std::uint32_t> picks(fault_at, 0);
    picks.push_back(pick);
    const RunResult r = run_scenario(sc, picks);
    EXPECT_FALSE(r.violation) << "pick " << pick << ": " << r.what;
  }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

TEST(Explorer, ExhaustsTheFrontierWithinTheBound) {
  ExploreConfig xc;
  xc.max_deviations = 1;
  xc.max_runs = 500;
  xc.horizon = 12;  // keep the frontier small: branch on early points only
  Explorer explorer(tiny_scenario(), xc);
  EXPECT_FALSE(explorer.explore().has_value());
  const ExploreStats& stats = explorer.stats();
  EXPECT_TRUE(stats.frontier_exhausted);
  EXPECT_FALSE(stats.budget_exhausted);
  EXPECT_EQ(stats.depth_completed, 1);
  EXPECT_EQ(stats.violations, 0u);
  ASSERT_EQ(stats.levels.size(), 2u);
  EXPECT_EQ(stats.levels[0].runs, 1u);
  EXPECT_EQ(stats.levels[1].runs, stats.levels[0].enqueued);
  EXPECT_EQ(stats.runs, stats.levels[0].runs + stats.levels[1].runs);
  EXPECT_GT(stats.unique_traces, 1u) << "deviations must change schedules";
  EXPECT_GT(stats.sim_stats.events_executed, 0u);
}

TEST(Explorer, BudgetCutsExplorationShort) {
  ExploreConfig xc;
  xc.max_deviations = 2;
  xc.max_runs = 5;
  Explorer explorer(tiny_scenario(), xc);
  EXPECT_FALSE(explorer.explore().has_value());
  EXPECT_TRUE(explorer.stats().budget_exhausted);
  EXPECT_FALSE(explorer.stats().frontier_exhausted);
  EXPECT_EQ(explorer.stats().runs, 5u);
}

TEST(Explorer, FindsMinimizesAndReplaysThePlantedBug) {
  ScenarioConfig sc = tiny_scenario();
  sc.inject_bug = true;
  sc.fault_slots = 1;
  ExploreConfig xc;
  xc.max_deviations = 1;
  xc.max_runs = 500;
  Explorer explorer(sc, xc);
  const auto found = explorer.explore();
  ASSERT_TRUE(found.has_value()) << "the planted bug is one deviation away";
  EXPECT_TRUE(found->violation);
  EXPECT_NE(found->what.find("WV_RFIFO"), std::string::npos) << found->what;
  EXPECT_EQ(explorer.stats().violations, 1u);

  const RunResult min_run = ScenarioRepro::minimize(sc, found->script);
  EXPECT_LE(min_run.script.deviations(), found->script.deviations());
  EXPECT_TRUE(min_run.violation);
  EXPECT_EQ(min_run.script.deviations(), 1u)
      << "only the bug-menu pick should survive minimization";

  // The minimized schedule replays byte-identically.
  const RunResult replay = run_scenario(sc, min_run.script.picks());
  EXPECT_TRUE(replay.violation);
  EXPECT_EQ(replay.what, min_run.what);
  EXPECT_EQ(render(replay.trace), render(min_run.trace));
}

TEST(Explorer, FindsMinimizesAndReplaysThePlantedCorruptionWedge) {
  // The corruption twin of the planted-bug pipeline: with corruption and
  // inject_bug set, the menu's planted action is kBugCorruptWedge — an
  // unrecoverable view-epoch corruption that only the stabilize epilogue's
  // reconvergence check can flag (no exact checker fires in-window).
  ScenarioConfig sc = tiny_scenario();
  sc.corruption = true;
  sc.inject_bug = true;
  sc.fault_slots = 1;
  ExploreConfig xc;
  xc.max_deviations = 1;
  xc.max_runs = 500;
  Explorer explorer(sc, xc);
  const auto found = explorer.explore();
  ASSERT_TRUE(found.has_value()) << "the planted wedge is one deviation away";
  EXPECT_TRUE(found->violation);
  EXPECT_NE(found->what.find("liveness"), std::string::npos) << found->what;

  const RunResult min_run = ScenarioRepro::minimize(sc, found->script);
  EXPECT_TRUE(min_run.violation);
  EXPECT_EQ(min_run.script.deviations(), 1u)
      << "only the wedge injection should survive minimization";

  // Minimizer probes and the final replay are judged under the same
  // eventual-safety window as the finding run, so the minimized schedule
  // replays byte-identically with the identical violation.
  const RunResult replay = run_scenario(sc, min_run.script.picks());
  EXPECT_TRUE(replay.violation);
  EXPECT_EQ(replay.what, min_run.what);
  EXPECT_EQ(render(replay.trace), render(min_run.trace));
}

TEST(Explorer, RandomWalkRecordsReplayableScripts) {
  ScenarioConfig sc = tiny_scenario();
  ExploreConfig xc;
  xc.max_runs = 500;
  Explorer explorer(sc, xc);
  EXPECT_FALSE(explorer.random_walk(0, 3).has_value());
  EXPECT_EQ(explorer.stats().runs, 4u);

  // A walk's recorded script replays to the same execution.
  RandomController ctl(2);
  const RunResult walk = run_scenario(sc, ctl);
  const RunResult replay = run_scenario(sc, walk.script.picks());
  EXPECT_EQ(render(walk.trace), render(replay.trace));
}

}  // namespace
}  // namespace vsgc::mc
