// Systematic schedule exploration over the deterministic simulator.
//
// A *scenario* is a small fixed workload (N-process world, racing sends, a
// graceful leave triggering a view change, optional fault decision slots)
// with every spec checker attached and a stabilize-and-check-liveness
// epilogue (Property 4.2). Between the trigger and the settle point the
// ScriptController is installed on the sim::Simulator and net::Network
// seams, so the execution is a pure function of the forced pick vector:
//
//   run_scenario(sc, {})          — the default schedule
//   run_scenario(sc, picks)      — the schedule `picks` deviations describe
//
// The explorer enumerates pick vectors with bounded iterative deepening on
// the *deviation count* (delay-bounded exploration a la CHESS): level d
// holds every schedule at distance d from the default; children of a run
// add one deviation at a choice point at or after the parent's last forced
// position. A child forces its parent's consumed picks, so it never outlives
// the choice points it lands in and each schedule is generated exactly
// once: explore() needs no dedup. (Only random_walk() drops repeats.)
//
// Fault decision points: scenarios with fault_slots > 0 consult the same
// controller at "mc.fault" points whose alternatives are a deterministic
// menu of sim::FaultOps (crash, one-way link down, server outage, and the
// planted dup-delivery bug when armed), applied through
// sim::FailureInjector::apply_now. Default (pick 0) injects nothing, so
// faults cost deviations like any other departure from the default run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/repro.hpp"
#include "mc/controller.hpp"
#include "mc/schedule_script.hpp"
#include "sim/failure_injector.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace vsgc::mc {

/// The fixed workload a controlled execution runs. Every field participates
/// in the JSON round-trip, so a violation bundle's scenario.json rebuilds
/// the exact world.
struct ScenarioConfig {
  int clients = 3;
  int servers = 1;
  std::uint64_t seed = 1;
  int messages = 2;           ///< racing sends issued at the trigger
  bool trigger_leave = true;  ///< last process leaves: the view change
  int fault_slots = 0;        ///< "mc.fault" decision points after trigger
  sim::Time slot_gap = 20 * sim::kMillisecond;
  sim::Time settle = 200 * sim::kMillisecond;  ///< controlled-window tail
  double drop = 0.0;     ///< > 0: every packet adds a "net.drop" choice
  sim::Time jitter = 0;  ///< > 0: every packet adds a "net.jitter" choice
  bool inject_bug = false;  ///< planted dup-delivery action on the menu
  /// State-corruption exploration (DESIGN.md §12): the fault menu gains one
  /// deterministic entry per recoverable corruption kind, and the world's
  /// checkers get a 30 s tolerance window so recovery fallout inside it
  /// doesn't read as a violation. With inject_bug, the planted action
  /// becomes the *unrecoverable* kBugCorruptWedge instead of the
  /// dup-delivery forgery.
  bool corruption = false;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("clients", s.clients)("servers", s.servers)("seed", s.seed)
     ("messages", s.messages)("trigger_leave", s.trigger_leave)
     ("fault_slots", s.fault_slots)("slot_gap", s.slot_gap)
     ("settle", s.settle)("drop", s.drop)("jitter", s.jitter)
     ("inject_bug", s.inject_bug)("corruption", s.corruption);
  }
};

/// Exploration bounds. Exhaustive *within* these bounds; the stats say
/// whether the frontier was exhausted or a budget cut exploration short.
struct ExploreConfig {
  int max_deviations = 2;        ///< delay bound (iterative deepening 0..d)
  std::uint64_t max_runs = 2000; ///< hard budget on executions
  std::size_t horizon = 160;     ///< only the first N choice points branch
  std::size_t jobs = 1;          ///< parallel executions (0 = hw threads).
                                 ///< Stats/results are byte-identical for
                                 ///< every value: runs execute in frontier-
                                 ///< order chunks and merge sequentially,
                                 ///< discarding whatever a sequential run
                                 ///< would never have executed.
};

struct ExploreStats {
  std::uint64_t runs = 0;           ///< executions actually performed
  std::uint64_t deduped = 0;        ///< repeated schedules skipped (only
                                    ///< random_walk(): explore() is 0)
  std::uint64_t choice_points = 0;  ///< total consumed across all runs
  std::uint64_t unique_traces = 0;  ///< distinct observable JSONL traces
  std::uint64_t violations = 0;
  int depth_completed = -1;         ///< deepest fully explored level
  bool frontier_exhausted = false;  ///< no schedules left within the bound
  bool budget_exhausted = false;    ///< max_runs cut exploration short

  // Simulator stats aggregated over every world the explorer ran (the
  // worlds themselves are destroyed inside run_scenario), so drivers can
  // fold them into a BenchArtifact "sim" section.
  sim::Simulator::Stats sim_stats;
  sim::Time sim_time = 0;

  struct Level {
    int depth = 0;
    std::uint64_t runs = 0;
    std::uint64_t deduped = 0;   ///< 0: explore() generates no repeats
    std::uint64_t enqueued = 0;  ///< children scheduled for the next level

    template <class S, class V>
    static void json_fields(S& s, V& v) {
      v("depth", s.depth)("runs", s.runs)("deduped", s.deduped)
       ("enqueued", s.enqueued);
    }
  };
  std::vector<Level> levels;

  /// The JSON form (BENCH_mc.json rows) leaves out the simulator stats.
  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("runs", s.runs)("deduped", s.deduped)("choice_points", s.choice_points)
     ("unique_traces", s.unique_traces)("violations", s.violations)
     ("depth_completed", s.depth_completed)
     ("frontier_exhausted", s.frontier_exhausted)
     ("budget_exhausted", s.budget_exhausted)("levels", s.levels);
  }
};

/// One controlled execution, end to end (app/repro.hpp).
using RunResult = app::RunResult<ScheduleScript>;

/// The deterministic fault menu a scenario's "mc.fault" points choose from
/// (alternative k on the menu is pick k+1; pick 0 injects nothing).
std::vector<sim::FaultOp> fault_menu(const ScenarioConfig& sc);

/// Run the scenario with `forced` picks (empty = default schedule).
RunResult run_scenario(const ScenarioConfig& sc,
                       const std::vector<std::uint32_t>& forced);
/// Same, with a caller-supplied controller (the random walk uses this).
RunResult run_scenario(const ScenarioConfig& sc, RecordingController& ctl);

/// vsgc_mc's side of the repro pipeline (app/repro.hpp): a bundle holds
/// scenario.json and schedule{,.min}.json, and minimizing resets non-default
/// picks to the default.
struct ScenarioRepro {
  using Config = ScenarioConfig;
  using Script = ScheduleScript;
  static constexpr const char* kConfigFile = "scenario.json";
  static constexpr const char* kScriptStem = "schedule";
  static constexpr const char* kUnit = "deviation(s)";

  static RunResult run(const ScenarioConfig& sc, const ScheduleScript& s) {
    return run_scenario(sc, s.picks());
  }
  /// Resets every deviation whose reset keeps the violation, trims the
  /// trailing defaults, and runs the result.
  static RunResult minimize(const ScenarioConfig& sc,
                            const ScheduleScript& violating);
  static std::size_t size(const ScheduleScript& s) { return s.deviations(); }
  static std::string check(const ScenarioConfig& sc, const ScheduleScript&);
};

class Explorer {
 public:
  Explorer(ScenarioConfig sc, ExploreConfig xc) : sc_(sc), xc_(xc) {}

  /// Delay-bounded iterative-deepening exploration. Returns the first
  /// violating run, if any (exploration stops there).
  std::optional<RunResult> explore();

  /// Seeded random-walk fallback over [seed_lo, seed_hi] walks (PR 2's
  /// seed-sweep discipline). Returns the first violating walk; its script
  /// replays deterministically through a ScriptController.
  std::optional<RunResult> random_walk(std::uint64_t seed_lo,
                                       std::uint64_t seed_hi);

  const ExploreStats& stats() const { return stats_; }

 private:
  void tally(const RunResult& run) {
    stats_.sim_stats.events_scheduled += run.sim_stats.events_scheduled;
    stats_.sim_stats.events_executed += run.sim_stats.events_executed;
    stats_.sim_stats.events_cancelled += run.sim_stats.events_cancelled;
    if (run.sim_stats.peak_queue_depth > stats_.sim_stats.peak_queue_depth) {
      stats_.sim_stats.peak_queue_depth = run.sim_stats.peak_queue_depth;
    }
    stats_.sim_time += run.sim_time;
  }

  ScenarioConfig sc_;
  ExploreConfig xc_;
  ExploreStats stats_;
};

}  // namespace vsgc::mc
