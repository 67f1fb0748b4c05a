// vsgc_mc: bounded model checker for the GCS stack (DESIGN.md §7).
//
// Runs a small fixed scenario (racing sends + a graceful leave triggering a
// view change, with optional fault decision slots) under the controllable-
// nondeterminism seams of sim::Simulator and net::Network, and explores the
// schedule space with delay-bounded iterative deepening: level d enumerates
// every schedule at d deviations from the default execution. State-hash
// dedup collapses pick-vector prefixes that decode to the same consumed
// choice sequence. A --walks mode does a seeded random walk over the same
// choice points instead (PR 2's seed-sweep discipline).
//
// On any checker violation it writes a repro bundle through app/repro.hpp
// into <out>/seed<S>/: scenario.json (the scenario configuration),
// schedule.json (the violating ScheduleScript), schedule.min.json,
// trace.jsonl, trace.min.jsonl, snapshot.json and violation.txt.
//
// Replay: --replay <bundle-dir> re-executes a bundle (minimized schedule if
// present) and verifies the violation reproduces with a byte-identical
// JSONL trace.
//
// Self-test: --inject-bug puts a forged duplicate delivery on the fault
// menu; with --expect-violation the exit code is 0 only if the explorer
// found it, the minimizer shrank it, and the minimized bundle replays to a
// byte-identical violating trace — the CI pipeline check.
//
// Every run writes a BENCH_mc.json artifact ($VSGC_BENCH_OUT) with the
// schedules explored/deduped, choice points consumed, per-level breakdown,
// and aggregated simulator stats.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "app/repro.hpp"
#include "cli.hpp"
#include "mc/explorer.hpp"
#include "obs/artifact.hpp"
#include "obs/json_fields.hpp"
#include "sim/batch.hpp"

namespace vsgc {
namespace {

struct CliConfig {
  mc::ScenarioConfig scenario;
  mc::ExploreConfig explore;
  bool random_walk = false;
  std::uint64_t walk_lo = 0;
  std::uint64_t walk_hi = 199;
  std::string out_dir = "mc-out";
  bool minimize = true;
  bool expect_violation = false;
  std::string replay_dir;  // non-empty: replay a bundle instead of exploring
};

void print_stats(const mc::ExploreStats& stats, const char* mode) {
  std::cout << mode << ": " << stats.runs << " run(s), " << stats.deduped
            << " deduped, " << stats.choice_points
            << " choice points consumed, " << stats.unique_traces
            << " unique trace(s)\n";
  for (const auto& l : stats.levels) {
    std::cout << "  depth " << l.depth << ": " << l.runs << " run(s), "
              << l.deduped << " deduped, " << l.enqueued << " enqueued\n";
  }
  if (stats.frontier_exhausted) {
    std::cout << "  frontier exhausted (complete within the delay bound)\n";
  }
  if (stats.budget_exhausted) {
    std::cout << "  run budget exhausted before the frontier\n";
  }
}

void write_artifact(const CliConfig& cfg, const mc::ExploreStats& stats,
                    bool violation_found) {
  obs::BenchArtifact artifact("mc");
  artifact.config("scenario") = obs::to_json(cfg.scenario);
  artifact.config("max_deviations") = cfg.explore.max_deviations;
  artifact.config("max_runs") = cfg.explore.max_runs;
  artifact.config("horizon") = cfg.explore.horizon;
  artifact.config("mode") = cfg.random_walk ? "random_walk" : "explore";
  obs::JsonValue& row = artifact.add_result();
  row = obs::to_json(stats);
  row["violation_found"] = violation_found;
  artifact.tally(stats.sim_stats, stats.sim_time);
  const std::string path = artifact.write_file();
  if (!path.empty()) std::cout << "artifact: " << path << "\n";
}

int usage() {
  std::cerr <<
      "usage: vsgc_mc [--clients N] [--servers M] [--seed S] [--messages K]\n"
      "               [--no-leave] [--fault-slots N] [--drop P]\n"
      "               [--jitter MICROS] [--max-deviations D] [--max-runs N]\n"
      "               [--horizon H] [--inject-bug] [--corrupt]\n"
      "               [--walks LO:HI]\n"
      "  --corrupt  add the state-corruption family to the fault menu and\n"
      "             run the checkers with a tolerance window; with\n"
      "             --inject-bug the planted action becomes an unrecoverable\n"
      "             view-epoch wedge\n"
      "               [--out DIR] [--no-minimize] [--expect-violation]\n"
      "               [--jobs N]\n"
      "  --jobs N   run N schedules in parallel (0 = all hardware threads);\n"
      "             stats, bundles and exit code are identical for every N\n"
      "       vsgc_mc --replay BUNDLE_DIR [--expect-violation]\n";
  return 2;
}

}  // namespace
}  // namespace vsgc

int main(int argc, char** argv) {
  using namespace vsgc;
  CliConfig cfg;
  mc::ScenarioConfig& sc = cfg.scenario;
  mc::ExploreConfig& ex = cfg.explore;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--clients") {
      if (!parse_int(value(), 1, INT_MAX, &sc.clients)) return usage();
    } else if (arg == "--servers") {
      if (!parse_int(value(), 1, INT_MAX, &sc.servers)) return usage();
    } else if (arg == "--seed") {
      if (!parse_int(value(), 0, UINT64_MAX, &sc.seed)) return usage();
    } else if (arg == "--messages") {
      if (!parse_int(value(), 0, INT_MAX, &sc.messages)) return usage();
    } else if (arg == "--no-leave") {
      sc.trigger_leave = false;
    } else if (arg == "--fault-slots") {
      if (!parse_int(value(), 0, INT_MAX, &sc.fault_slots)) return usage();
    } else if (arg == "--drop") {
      if (!parse_probability(value(), &sc.drop)) return usage();
    } else if (arg == "--jitter") {
      if (!parse_int(value(), 0, INT_MAX, &sc.jitter)) return usage();
    } else if (arg == "--max-deviations") {
      if (!parse_int(value(), 0, INT_MAX, &ex.max_deviations)) return usage();
    } else if (arg == "--max-runs") {
      if (!parse_int(value(), 0, UINT64_MAX, &ex.max_runs)) return usage();
    } else if (arg == "--horizon") {
      if (!parse_int(value(), 0, SIZE_MAX, &ex.horizon)) return usage();
    } else if (arg == "--inject-bug") {
      sc.inject_bug = true;
    } else if (arg == "--corrupt") {
      sc.corruption = true;
    } else if (arg == "--walks") {
      if (!parse_range(value(), &cfg.walk_lo, &cfg.walk_hi)) return usage();
      cfg.random_walk = true;
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else if (arg == "--no-minimize") {
      cfg.minimize = false;
    } else if (arg == "--expect-violation") {
      cfg.expect_violation = true;
    } else if (arg == "--replay") {
      cfg.replay_dir = value();
    } else if (arg == "--jobs") {
      if (!parse_int(value(), 0, SIZE_MAX, &ex.jobs)) return usage();
    } else {
      return usage();
    }
  }

  if (!cfg.replay_dir.empty()) {
    return app::replay_bundle<mc::ScenarioRepro>(
        cfg.replay_dir, cfg.expect_violation, std::cout, std::cerr);
  }

  // A planted bug needs at least one fault decision point to land on.
  if (cfg.scenario.inject_bug && cfg.scenario.fault_slots == 0) {
    cfg.scenario.fault_slots = 1;
  }

  mc::Explorer explorer(cfg.scenario, cfg.explore);
  const auto wall_start = std::chrono::steady_clock::now();
  const std::optional<mc::RunResult> found =
      cfg.random_walk ? explorer.random_walk(cfg.walk_lo, cfg.walk_hi)
                      : explorer.explore();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  print_stats(explorer.stats(), cfg.random_walk ? "random walk" : "explore");
  // Throughput summary (stderr, wall-clock — not part of the deterministic
  // stdout contract the CI jobs-independence check compares).
  if (wall_seconds > 0.0) {
    std::ostringstream tp;
    tp.setf(std::ios::fixed);
    tp.precision(2);
    tp << "[throughput] " << explorer.stats().runs << " runs in "
       << wall_seconds << "s — "
       << (static_cast<double>(explorer.stats().runs) / wall_seconds)
       << " runs/sec, "
       << (static_cast<double>(explorer.stats().sim_stats.events_executed) /
           wall_seconds / 1e6)
       << "M events/sec, jobs="
       << (cfg.explore.jobs == 0 ? sim::BatchRunner::hardware_jobs()
                                 : cfg.explore.jobs);
    std::cerr << tp.str() << "\n";
  }
  write_artifact(cfg, explorer.stats(), found.has_value());

  if (!found.has_value()) {
    std::cout << "no violation found\n";
    return cfg.expect_violation ? 1 : 0;
  }
  std::cout << "VIOLATION after " << explorer.stats().runs << " run(s) ("
            << found->script.deviations() << " deviation(s)):\n  "
            << found->what << "\n";
  const std::filesystem::path dir =
      std::filesystem::path(cfg.out_dir) /
      ("seed" + std::to_string(cfg.scenario.seed));
  const bool actionable = app::write_bundle<mc::ScenarioRepro>(
      dir, cfg.scenario, *found, cfg.minimize, std::cerr);
  if (cfg.expect_violation) return actionable ? 0 : 1;
  return 1;
}
