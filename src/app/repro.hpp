// The repro pipeline of the checked-run tools (vsgc_stress, vsgc_mc).
//
// A checked run drives an app::World and ends with World::stabilize_and_check.
// Its RunResult<Script> holds the verdict, the script it applied
// (sim::FaultScript or mc::ScheduleScript), the recorded trace and, if it
// violated, the world's layer snapshot. write_bundle() turns a violating run
// into a directory: the tool's config file, <stem>.json and <stem>.min.json
// (the failing and the greedily minimized script), trace.jsonl and
// trace.min.jsonl, snapshot.json and violation.txt. replay_bundle() reads one
// strictly and requires the violation with a byte-identical trace.
//
// A tool plugs in through a traits class `Tool`:
//   Config, Script                      records with json_fields
//   kConfigFile, kScriptStem, kUnit     file names; what size() counts
//   run(config, script)                 one run of `script`
//   minimize(config, script)            greedy_elide, then one run
//   size(script)                        for violation.txt's summary
//   check(config, script)               "" if they fit, else the reason
#pragma once

#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "obs/json_fields.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace vsgc::app {

/// One checked execution, end to end.
template <class Script>
struct RunResult {
  bool violation = false;
  std::string what;
  Script script;  ///< what the run applied or consumed, in order
  std::vector<spec::Event> trace;
  sim::Simulator::Stats sim_stats;  ///< the world's kernel counters
  sim::Time sim_time = 0;           ///< simulated time at the end of the run
  std::uint64_t checker_tolerated = 0;  ///< World::checkers().tolerated()
  obs::Registry snapshot;           ///< World::snapshot, only if violating
};

/// Runs `drive()` against `w`; an InvariantViolation it throws becomes the
/// verdict. Collects the trace, the kernel stats and, for a violating run,
/// the layer snapshot while the world is alive. The caller fills `script`.
template <class Script, class Drive>
RunResult<Script> checked_run(World& w, Drive&& drive) {
  RunResult<Script> result;
  try {
    drive();
  } catch (const InvariantViolation& e) {
    result.violation = true;
    result.what = e.what();
  }
  result.trace = w.trace().recorded();
  result.sim_stats = w.sim().stats();
  result.sim_time = w.sim().now();
  result.checker_tolerated = w.checkers().tolerated();
  if (result.violation) w.snapshot(result.snapshot);
  return result;
}

/// Greedy minimizer: walks `candidates` in order and elides each one whose
/// elision, added to those already taken, `still_fails`. A pass that elides
/// anything is followed by another (at most 3), so a candidate that only
/// becomes removable after a later one is gone is still elided.
template <class StillFails>
std::set<std::size_t> greedy_elide(const std::vector<std::size_t>& candidates,
                                   StillFails&& still_fails) {
  std::set<std::size_t> elided;
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (const std::size_t i : candidates) {
      if (elided.contains(i)) continue;
      std::set<std::size_t> trial = elided;
      trial.insert(i);
      if (still_fails(trial)) {
        elided = std::move(trial);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return elided;
}

inline std::string render_trace(const std::vector<spec::Event>& trace) {
  std::ostringstream os;
  obs::write_jsonl(trace, os);
  return os.str();
}

namespace repro_detail {

inline void write_file(const std::filesystem::path& path,
                       const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

inline void write_json(const std::filesystem::path& path,
                       const obs::JsonValue& j) {
  write_file(path, j.dump_pretty() + "\n");
}

/// The whole file in `*out`; false if it cannot be read.
inline bool read_file(const std::filesystem::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

/// Strict read of a JSON file through `T`'s field list.
template <class T>
bool read_record(const std::filesystem::path& path, T* out) {
  std::string text;
  std::string error;
  if (!read_file(path, &text)) return false;
  const obs::JsonValue j = obs::JsonValue::parse(text, &error);
  return error.empty() && obs::from_json(j, out);
}

}  // namespace repro_detail

/// Writes the bundle of violating run `failed` into `dir`, minimizing it
/// when `minimize` is set. Returns true if the bundle is actionable: the
/// minimized run still violates or, without minimization, the full script
/// replays to a violation with a byte-identical trace.
template <class Tool>
bool write_bundle(const std::filesystem::path& dir,
                  const typename Tool::Config& config,
                  const RunResult<typename Tool::Script>& failed,
                  bool minimize, std::ostream& err) {
  using repro_detail::write_file;
  using repro_detail::write_json;
  const std::string stem = Tool::kScriptStem;
  std::filesystem::create_directories(dir);
  write_json(dir / Tool::kConfigFile, obs::to_json(config));
  write_json(dir / (stem + ".json"), obs::to_json(failed.script));
  write_file(dir / "trace.jsonl", render_trace(failed.trace));
  write_json(dir / "snapshot.json", failed.snapshot.to_json());

  std::ostringstream violation;
  violation << failed.what << "\n";
  bool actionable = false;
  if (minimize) {
    const auto min_run = Tool::minimize(config, failed.script);
    actionable = min_run.violation;
    write_json(dir / (stem + ".min.json"), obs::to_json(min_run.script));
    write_file(dir / "trace.min.jsonl", render_trace(min_run.trace));
    violation << "minimized: " << Tool::size(failed.script) << " -> "
              << Tool::size(min_run.script) << " " << Tool::kUnit << "\n"
              << "minimized violation: "
              << (min_run.violation ? min_run.what : "(did not reproduce)")
              << "\n";
  } else {
    const auto again = Tool::run(config, failed.script);
    actionable = again.violation &&
                 render_trace(again.trace) == render_trace(failed.trace);
  }
  write_file(dir / "violation.txt", violation.str());
  err << "  repro bundle: " << dir.string() << "\n";
  return actionable;
}

/// Replays the bundle in `dir`: its minimized script if there is one, else
/// the full script. Exit code: 2 if the bundle is malformed (a strict read,
/// then Tool::check); otherwise, with `expect_violation`, 0 only if the
/// violation reproduces with a trace byte-identical to the stored one, and
/// without it 0 only if the replay runs clean.
template <class Tool>
int replay_bundle(const std::filesystem::path& dir, bool expect_violation,
                  std::ostream& out, std::ostream& err) {
  using repro_detail::read_record;
  const std::string stem = Tool::kScriptStem;
  const bool minimized = std::filesystem::exists(dir / (stem + ".min.json"));
  const std::filesystem::path config_path = dir / Tool::kConfigFile;
  const std::filesystem::path script_path =
      dir / (stem + (minimized ? ".min.json" : ".json"));
  const std::filesystem::path trace_path =
      dir / (minimized ? "trace.min.jsonl" : "trace.jsonl");
  const auto malformed = [&err](const std::filesystem::path& path) {
    err << "cannot read " << path.string() << "\n";
    return 2;
  };
  typename Tool::Config config{};
  typename Tool::Script script;
  std::string stored;
  if (!read_record(config_path, &config)) return malformed(config_path);
  if (!read_record(script_path, &script)) return malformed(script_path);
  if (!repro_detail::read_file(trace_path, &stored)) {
    return malformed(trace_path);
  }
  if (const std::string why = Tool::check(config, script); !why.empty()) {
    err << dir.string() << ": " << why << "\n";
    return 2;
  }

  const auto result = Tool::run(config, script);
  if (!result.violation) {
    out << "replay of " << script_path.string() << " ran clean\n";
    return expect_violation ? 1 : 0;
  }
  const bool identical = render_trace(result.trace) == stored;
  out << "replay of " << script_path.string()
      << " reproduces the violation:\n  " << result.what << "\n"
      << "  trace vs " << trace_path.filename().string() << ": "
      << (identical ? "byte-identical" : "DIFFERS") << "\n";
  return expect_violation && identical ? 0 : 1;
}

}  // namespace vsgc::app
