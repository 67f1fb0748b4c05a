// vsgc_stress: seeded stress fuzzer for the full GCS stack.
//
// Sweeps a range of seeds; for each seed it builds an app::World with every
// spec checker attached, drives a sim::FailureInjector churn schedule
// against it, then runs the stabilize-and-check-liveness epilogue (Property
// 4.2): heal everything, recover everyone, require reconvergence, send a
// probe, and check the recorded trace with the liveness checker.
//
// On any checker violation (safety thrown mid-run, or the liveness epilogue
// failing) it writes a self-contained repro bundle:
//
//   <out>/seed<N>/config.json        world + policy configuration
//   <out>/seed<N>/fault_script.json  the full fault schedule that failed
//   <out>/seed<N>/fault_script.min.json  greedily minimized schedule
//   <out>/seed<N>/trace.jsonl        full JSONL trace of the failing run
//   <out>/seed<N>/trace.min.jsonl    trace of the minimized run
//   <out>/seed<N>/violation.txt      the violation messages
//
// and a greedy fault-script minimizer re-runs the seed with ops elided one
// at a time, keeping every elision that preserves the violation — shrinking
// a ~50-op schedule to the handful of faults that matter.
//
// Replay: --replay <bundle-dir> re-executes a bundle (the minimized script
// if present) and reports whether the violation reproduces.
//
// Self-test: --inject-bug <step> arms a deliberate endpoint bug (a forged
// duplicate delivery) at the given churn step; with --expect-violation the
// exit code is 0 only if the bug was caught, minimized, and the minimized
// bundle replays to a violation — the CI pipeline check.
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/json_fields.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/batch.hpp"
#include "sim/failure_injector.hpp"
#include "spec/liveness_checker.hpp"
#include "util/assert.hpp"

namespace vsgc {
namespace {

namespace fs = std::filesystem;

struct StressConfig {
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 49;
  int clients = 4;
  int servers = 1;
  int steps = 25;
  double drop = 0.0;
  bool two_tier = false;
  gcs::ForwardingKind forwarding = gcs::ForwardingKind::kMinCopies;
  /// State-corruption mode (DESIGN.md §12): the churn policy draws corruption
  /// ops, the world attaches the eventual-safety checker bundle (violations
  /// tolerated inside eventual_window after an injection), and --inject-bug
  /// plants the unrecoverable kBugCorruptWedge instead of the dup-delivery
  /// forgery. Both fields round-trip through config.json so bundle replay and
  /// the minimizer judge every script subset under the *same* window bound.
  bool corrupt = false;
  sim::Time eventual_window = 30 * sim::kSecond;
  int bug_at_step = -1;
  std::string out_dir = "stress-out";
  bool minimize = true;
  bool expect_violation = false;
  std::string replay_dir;  // non-empty: replay a bundle instead of sweeping
  std::size_t jobs = 1;    // parallel sweep workers; 0 = hardware threads
};

/// config.json of a repro bundle: the world and policy fields of the
/// StressConfig that failed, and the seed it failed under (not a
/// StressConfig member, so it sits next to the struct).
struct BundleConfig {
  std::uint64_t seed = 0;
  StressConfig cfg;

  template <class S, class V>
  static void json_fields(S& s, V& v) {
    v("seed", s.seed)("clients", s.cfg.clients)("servers", s.cfg.servers)
     ("steps", s.cfg.steps)("drop", s.cfg.drop)("two_tier", s.cfg.two_tier)
     ("forwarding", s.cfg.forwarding)("bug_at_step", s.cfg.bug_at_step)
     ("corrupt", s.cfg.corrupt)("eventual_window", s.cfg.eventual_window);
  }
};

app::WorldConfig world_config(const StressConfig& cfg, std::uint64_t seed) {
  app::WorldConfig wc;
  wc.num_clients = cfg.clients;
  wc.num_servers = cfg.servers;
  wc.seed = seed;
  wc.forwarding = cfg.forwarding;
  wc.net.drop_probability = cfg.drop;
  wc.eventual_checkers = cfg.corrupt;
  wc.eventual_window = cfg.eventual_window;
  if (cfg.two_tier) {
    wc.sync_routing.mode = gcs::SyncRouting::Mode::kTwoTier;
    const int half = (cfg.clients + 1) / 2;
    for (int i = 0; i < cfg.clients; ++i) {
      wc.sync_routing.leader_of[ProcessId{static_cast<std::uint32_t>(i + 1)}] =
          ProcessId{static_cast<std::uint32_t>(i < half ? 1 : half + 1)};
    }
  }
  return wc;
}

sim::FailureInjector::Policy make_policy(const StressConfig& cfg) {
  sim::FailureInjector::Policy policy;
  policy.steps = cfg.steps;
  policy.base_drop = cfg.drop;
  policy.bug_at_step = cfg.bug_at_step;
  if (cfg.corrupt) {
    policy.w_corrupt = 6;
    policy.bug_is_corruption = true;
  }
  return policy;
}

struct RunResult {
  bool violation = false;
  std::string what;
  sim::FaultScript script;       ///< ops actually applied
  std::vector<spec::Event> trace;
  sim::Simulator::Stats sim_stats;  ///< kernel counters at end of run
  sim::Time sim_time = 0;           ///< final simulated clock
  double wall_seconds = 0.0;        ///< host time for this run (summary only)
};

/// One full execution: generate mode when `replay` is null, otherwise replay
/// of `*replay` with `elide` skipped. Any safety/liveness failure lands in
/// the result instead of propagating.
RunResult run_one(const StressConfig& cfg, std::uint64_t seed,
                  const sim::FaultScript* replay = nullptr,
                  const std::set<std::size_t>& elide = {}) {
  RunResult result;
  app::World w(world_config(cfg, seed));
  sim::FailureInjector injector(w.fault_target(), make_policy(cfg), seed);
  try {
    w.start();
    if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
      throw InvariantViolation("initial convergence failed (before faults)");
    }
    if (replay != nullptr) injector.replay(*replay, elide);
    else injector.run_churn();

    // Stabilize-and-check-liveness epilogue (Property 4.2).
    injector.stabilize();
    if (!w.run_until_converged(w.all_members(), 60 * sim::kSecond)) {
      throw InvariantViolation(
          "liveness: no reconvergence within 60s after stabilization");
    }
    w.client(0).send("stress-probe-" + std::to_string(seed));
    w.run_for(3 * sim::kSecond);
    w.check_transport_bounded();
    w.finalize_checkers();
    if (!spec::LivenessChecker::check(w.trace().recorded())) {
      throw InvariantViolation(
          "liveness: membership did not stabilize in the recorded trace");
    }
  } catch (const InvariantViolation& e) {
    result.violation = true;
    result.what = e.what();
  }
  result.script = injector.script();
  result.trace = w.trace().recorded();
  result.sim_stats = w.sim().stats();
  result.sim_time = w.sim().now();
  return result;
}

/// Greedy fault-script minimizer: repeatedly try eliding each op; keep an
/// elision whenever the violation persists. Loops to a fixpoint (max 3
/// passes) so an op unlocked by a later removal still gets elided.
std::set<std::size_t> minimize(const StressConfig& cfg, std::uint64_t seed,
                               const sim::FaultScript& script) {
  std::set<std::size_t> elided;
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < script.ops.size(); ++i) {
      if (elided.contains(i)) continue;
      std::set<std::size_t> trial = elided;
      trial.insert(i);
      if (run_one(cfg, seed, &script, trial).violation) {
        elided = std::move(trial);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return elided;
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

void write_trace(const fs::path& path, const std::vector<spec::Event>& trace) {
  std::ofstream os(path, std::ios::binary);
  obs::write_jsonl(trace, os);
}

sim::FaultScript subset(const sim::FaultScript& script,
                        const std::set<std::size_t>& elided) {
  sim::FaultScript out;
  out.seed = script.seed;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    if (!elided.contains(i)) out.ops.push_back(script.ops[i]);
  }
  return out;
}

/// Writes the bundle; returns true if the minimized script still replays to
/// a violation (the bundle is actionable).
bool emit_bundle(const StressConfig& cfg, std::uint64_t seed,
                 const RunResult& failed) {
  const fs::path dir = fs::path(cfg.out_dir) / ("seed" + std::to_string(seed));
  fs::create_directories(dir);
  write_json(dir / "config.json", obs::to_json(BundleConfig{seed, cfg}));
  write_json(dir / "fault_script.json", obs::to_json(failed.script));
  write_trace(dir / "trace.jsonl", failed.trace);

  std::ostringstream violation;
  violation << failed.what << "\n";
  bool min_reproduces = false;
  if (cfg.minimize) {
    const std::set<std::size_t> elided = minimize(cfg, seed, failed.script);
    const sim::FaultScript min_script = subset(failed.script, elided);
    const RunResult min_run = run_one(cfg, seed, &min_script);
    min_reproduces = min_run.violation;
    write_json(dir / "fault_script.min.json", obs::to_json(min_script));
    write_trace(dir / "trace.min.jsonl", min_run.trace);
    violation << "minimized: " << failed.script.ops.size() << " -> "
              << min_script.ops.size() << " ops\n";
    violation << "minimized violation: "
              << (min_run.violation ? min_run.what : "(did not reproduce)")
              << "\n";
  } else {
    // Without minimization the full script must still replay to a violation.
    min_reproduces = run_one(cfg, seed, &failed.script).violation;
  }
  write_text(dir / "violation.txt", violation.str());
  std::cerr << "  repro bundle: " << dir.string() << "\n";
  return min_reproduces;
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

int replay_bundle(const StressConfig& flags) {
  const fs::path dir = flags.replay_dir;
  const fs::path cfg_path = dir / "config.json";
  BundleConfig bundle{0, flags};
  if (!read_record(cfg_path, &bundle)) {
    std::cerr << "cannot parse " << cfg_path.string() << "\n";
    return 2;
  }
  // The --clients/--servers rule: a world needs at least one of each.
  const StressConfig& cfg = bundle.cfg;
  if (cfg.clients < 1 || cfg.servers < 1) {
    std::cerr << cfg_path.string()
              << ": clients and servers must be positive integers\n";
    return 2;
  }
  fs::path script_path = dir / "fault_script.min.json";
  if (!fs::exists(script_path)) script_path = dir / "fault_script.json";
  sim::FaultScript script;
  if (!read_record(script_path, &script)) {
    std::cerr << "cannot parse " << script_path.string() << "\n";
    return 2;
  }
  if (!script.fits(cfg.clients, cfg.servers)) {
    std::cerr << script_path.string()
              << ": an op names a process or server outside the "
              << cfg.clients << "-client, " << cfg.servers
              << "-server world\n";
    return 2;
  }
  const RunResult result = run_one(cfg, bundle.seed, &script);
  if (result.violation) {
    std::cout << "replay of " << script_path.string()
              << " reproduces the violation:\n  " << result.what << "\n";
    return cfg.expect_violation ? 0 : 1;
  }
  std::cout << "replay of " << script_path.string() << " ran clean\n";
  return cfg.expect_violation ? 1 : 0;
}

/// Parse a positive decimal int; false on anything else.
bool parse_positive(const std::string& text, int* out) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v < 1 || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

int usage() {
  std::cerr <<
      "usage: vsgc_stress [--seeds LO:HI] [--clients N] [--servers M]\n"
      "                   [--steps K] [--drop P] [--two-tier] [--corrupt]\n"
      "                   [--eventual-window SECONDS]\n"
      "                   [--forwarding simple|mincopies] [--out DIR]\n"
      "                   [--no-minimize] [--inject-bug STEP]\n"
      "                   [--expect-violation] [--jobs N]\n"
      "  --jobs N   run N seeds in parallel (0 = all hardware threads);\n"
      "             output is identical for every N\n"
      "       vsgc_stress --replay BUNDLE_DIR [--expect-violation]\n";
  return 2;
}

}  // namespace
}  // namespace vsgc

int main(int argc, char** argv) {
  using namespace vsgc;
  StressConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      const std::string v = value();
      const auto colon = v.find(':');
      if (colon == std::string::npos) {
        cfg.seed_lo = cfg.seed_hi = std::strtoull(v.c_str(), nullptr, 10);
      } else {
        cfg.seed_lo = std::strtoull(v.substr(0, colon).c_str(), nullptr, 10);
        cfg.seed_hi = std::strtoull(v.substr(colon + 1).c_str(), nullptr, 10);
      }
    } else if (arg == "--clients") {
      if (!parse_positive(value(), &cfg.clients)) return usage();
    } else if (arg == "--servers") {
      if (!parse_positive(value(), &cfg.servers)) return usage();
    } else if (arg == "--steps") {
      cfg.steps = std::atoi(value().c_str());
    } else if (arg == "--drop") {
      cfg.drop = std::atof(value().c_str());
    } else if (arg == "--two-tier") {
      cfg.two_tier = true;
    } else if (arg == "--corrupt") {
      cfg.corrupt = true;
    } else if (arg == "--eventual-window") {
      cfg.eventual_window = std::atoi(value().c_str()) * sim::kSecond;
    } else if (arg == "--forwarding") {
      cfg.forwarding = value() == "simple" ? gcs::ForwardingKind::kSimple
                                           : gcs::ForwardingKind::kMinCopies;
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else if (arg == "--no-minimize") {
      cfg.minimize = false;
    } else if (arg == "--inject-bug") {
      cfg.bug_at_step = std::atoi(value().c_str());
    } else if (arg == "--expect-violation") {
      cfg.expect_violation = true;
    } else if (arg == "--replay") {
      cfg.replay_dir = value();
    } else if (arg == "--jobs") {
      cfg.jobs = static_cast<std::size_t>(std::strtoull(value().c_str(), nullptr, 10));
    } else {
      return usage();
    }
  }

  if (!cfg.replay_dir.empty()) return replay_bundle(cfg);
  if (cfg.seed_hi < cfg.seed_lo) return usage();

  const std::uint64_t seeds = cfg.seed_hi - cfg.seed_lo + 1;

  // Parallel sweep: one fully isolated World per seed on the batch engine.
  // Results are merged (printed, tallied, bundled) strictly in seed order, so
  // stdout/stderr and every bundle are byte-identical for any --jobs value.
  const auto wall_start = std::chrono::steady_clock::now();
  sim::BatchRunner runner(cfg.jobs);
  const std::vector<RunResult> results = runner.map<RunResult>(
      static_cast<std::size_t>(seeds), [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        RunResult r = run_one(cfg, cfg.seed_lo + i);
        r.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        return r;
      });
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::uint64_t violations = 0;
  std::uint64_t actionable = 0;
  std::uint64_t total_events = 0;
  double serial_seconds = 0.0;
  obs::BenchArtifact artifact("stress");
  artifact.config("seeds") = seeds;
  artifact.config("jobs") = static_cast<std::uint64_t>(runner.jobs());
  artifact.config("clients") = cfg.clients;
  artifact.config("servers") = cfg.servers;
  artifact.config("steps") = cfg.steps;
  for (std::uint64_t seed = cfg.seed_lo; seed <= cfg.seed_hi; ++seed) {
    const RunResult& result = results[seed - cfg.seed_lo];
    total_events += result.sim_stats.events_executed;
    serial_seconds += result.wall_seconds;
    artifact.tally(result.sim_stats, result.sim_time);
    if (!result.violation) {
      std::cout << "seed " << seed << ": ok (" << result.script.ops.size()
                << " fault ops)\n";
      continue;
    }
    ++violations;
    std::cout << "seed " << seed << ": VIOLATION\n  " << result.what << "\n";
    if (emit_bundle(cfg, seed, result)) ++actionable;
  }

  // Throughput summary (stderr, wall-clock — deliberately not part of the
  // deterministic stdout contract).
  if (sweep_seconds > 0.0) {
    std::ostringstream sweep;
    sweep.setf(std::ios::fixed);
    sweep.precision(2);
    sweep << "[sweep] " << seeds << " seeds in " << sweep_seconds << "s — "
          << (static_cast<double>(seeds) / sweep_seconds) << " seeds/sec, "
          << (static_cast<double>(total_events) / sweep_seconds / 1e6)
          << "M events/sec, jobs=" << runner.jobs();
    if (runner.jobs() > 1 && sweep_seconds > 0.0) {
      sweep << ", est. speedup vs --jobs 1: "
            << (serial_seconds / sweep_seconds) << "x";
    }
    std::cerr << sweep.str() << "\n";
  }
  artifact.write_file();

  std::cout << "\n" << seeds << " seeds, " << violations << " violation(s)";
  if (violations > 0) std::cout << ", " << actionable << " minimized+replayed";
  std::cout << "\n";

  if (cfg.expect_violation) {
    // Self-test mode: success means the pipeline caught the planted bug AND
    // the (minimized) bundle replays to the violation.
    return violations > 0 && actionable == violations ? 0 : 1;
  }
  return violations == 0 ? 0 : 1;
}
