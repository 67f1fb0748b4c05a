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
// On any checker violation it writes a self-contained repro bundle:
//
//   <out>/<label>/scenario.json       the scenario configuration
//   <out>/<label>/schedule.json       the violating ScheduleScript
//   <out>/<label>/schedule.min.json   greedily minimized schedule
//   <out>/<label>/trace.jsonl         full JSONL trace of the failing run
//   <out>/<label>/trace.min.jsonl     trace of the minimized run
//   <out>/<label>/violation.txt       the violation messages
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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/json_fields.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/batch.hpp"

namespace vsgc {
namespace {

namespace fs = std::filesystem;

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

std::string render_trace(const std::vector<spec::Event>& trace) {
  std::ostringstream os;
  obs::write_jsonl(trace, os);
  return os.str();
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
}

void write_json(const fs::path& path, const obs::JsonValue& j) {
  std::ofstream os(path, std::ios::binary);
  j.write_pretty(os);
  os << '\n';
}

/// Read a JSON file into `out` through its field list; false on any error.
template <class T>
bool read_record(const fs::path& path, T* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const obs::JsonValue j = obs::JsonValue::parse(text.str(), &error);
  return error.empty() && obs::from_json(j, out);
}

/// Writes the bundle; returns true if the (minimized) schedule still replays
/// to a violation — i.e. the bundle is actionable.
bool emit_bundle(const CliConfig& cfg, const mc::RunResult& failed) {
  const fs::path dir =
      fs::path(cfg.out_dir) / ("seed" + std::to_string(cfg.scenario.seed));
  fs::create_directories(dir);
  write_json(dir / "scenario.json", obs::to_json(cfg.scenario));
  write_json(dir / "schedule.json", obs::to_json(failed.script));
  write_text(dir / "trace.jsonl", render_trace(failed.trace));

  std::ostringstream violation;
  violation << failed.what << "\n";
  bool reproduces = false;
  if (cfg.minimize) {
    const std::vector<std::uint32_t> min_picks =
        mc::minimize_schedule(cfg.scenario, failed.script.picks());
    const mc::RunResult min_run = mc::run_scenario(cfg.scenario, min_picks);
    reproduces = min_run.violation;
    write_json(dir / "schedule.min.json", obs::to_json(min_run.script));
    write_text(dir / "trace.min.jsonl", render_trace(min_run.trace));
    violation << "minimized: " << failed.script.deviations() << " -> "
              << min_run.script.deviations() << " deviation(s)\n";
    violation << "minimized violation: "
              << (min_run.violation ? min_run.what : "(did not reproduce)")
              << "\n";
  } else {
    reproduces =
        mc::run_scenario(cfg.scenario, failed.script.picks()).violation;
  }
  write_text(dir / "violation.txt", violation.str());
  std::cerr << "  repro bundle: " << dir.string() << "\n";
  return reproduces;
}

int replay_bundle(const CliConfig& cfg) {
  const fs::path dir = cfg.replay_dir;
  const fs::path scenario_path = dir / "scenario.json";
  mc::ScenarioConfig sc;
  if (!read_record(scenario_path, &sc)) {
    std::cerr << "cannot parse " << scenario_path.string() << "\n";
    return 2;
  }
  // The vsgc_stress --clients/--servers rule: at least one of each.
  if (sc.clients < 1 || sc.servers < 1) {
    std::cerr << scenario_path.string()
              << ": clients and servers must be positive integers\n";
    return 2;
  }
  fs::path script_path = dir / "schedule.min.json";
  fs::path trace_path = dir / "trace.min.jsonl";
  if (!fs::exists(script_path)) {
    script_path = dir / "schedule.json";
    trace_path = dir / "trace.jsonl";
  }
  mc::ScheduleScript script;
  if (!read_record(script_path, &script)) {
    std::cerr << "cannot parse " << script_path.string() << "\n";
    return 2;
  }

  const mc::RunResult result = mc::run_scenario(sc, script.picks());
  bool byte_identical = false;
  {
    std::ifstream in(trace_path, std::ios::binary);
    std::stringstream stored;
    stored << in.rdbuf();
    byte_identical = in && stored.str() == render_trace(result.trace);
  }
  if (result.violation) {
    std::cout << "replay of " << script_path.string()
              << " reproduces the violation:\n  " << result.what << "\n"
              << "  trace vs " << trace_path.filename().string() << ": "
              << (byte_identical ? "byte-identical" : "DIFFERS") << "\n";
    const bool ok = byte_identical;
    return cfg.expect_violation ? (ok ? 0 : 1) : 1;
  }
  std::cout << "replay of " << script_path.string() << " ran clean\n";
  return cfg.expect_violation ? 1 : 0;
}

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
      "             run the eventual-safety checker bundle; with\n"
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
      cfg.scenario.clients = std::atoi(value().c_str());
    } else if (arg == "--servers") {
      cfg.scenario.servers = std::atoi(value().c_str());
    } else if (arg == "--seed") {
      cfg.scenario.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--messages") {
      cfg.scenario.messages = std::atoi(value().c_str());
    } else if (arg == "--no-leave") {
      cfg.scenario.trigger_leave = false;
    } else if (arg == "--fault-slots") {
      cfg.scenario.fault_slots = std::atoi(value().c_str());
    } else if (arg == "--drop") {
      cfg.scenario.drop = std::atof(value().c_str());
    } else if (arg == "--jitter") {
      cfg.scenario.jitter = std::atoll(value().c_str());
    } else if (arg == "--max-deviations") {
      cfg.explore.max_deviations = std::atoi(value().c_str());
    } else if (arg == "--max-runs") {
      cfg.explore.max_runs = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--horizon") {
      cfg.explore.horizon =
          static_cast<std::size_t>(std::strtoull(value().c_str(), nullptr, 10));
    } else if (arg == "--inject-bug") {
      cfg.scenario.inject_bug = true;
    } else if (arg == "--corrupt") {
      cfg.scenario.corruption = true;
    } else if (arg == "--walks") {
      const std::string v = value();
      const auto colon = v.find(':');
      if (colon == std::string::npos) {
        cfg.walk_lo = cfg.walk_hi = std::strtoull(v.c_str(), nullptr, 10);
      } else {
        cfg.walk_lo = std::strtoull(v.substr(0, colon).c_str(), nullptr, 10);
        cfg.walk_hi = std::strtoull(v.substr(colon + 1).c_str(), nullptr, 10);
      }
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
      cfg.explore.jobs = static_cast<std::size_t>(
          std::strtoull(value().c_str(), nullptr, 10));
    } else {
      return usage();
    }
  }

  if (!cfg.replay_dir.empty()) return replay_bundle(cfg);

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
  const bool actionable = emit_bundle(cfg, *found);
  if (cfg.expect_violation) return actionable ? 0 : 1;
  return 1;
}
