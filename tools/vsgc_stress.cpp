// vsgc_stress: seeded stress fuzzer for the full GCS stack.
//
// Sweeps a range of seeds; for each seed it builds an app::World with every
// spec checker attached, drives a sim::FailureInjector churn schedule
// against it, then runs World::stabilize_and_check (Property 4.2): heal
// everything, recover everyone, require reconvergence, send a probe, and
// check the recorded trace with the liveness checker.
//
// On any checker violation (safety thrown mid-run, or the liveness epilogue
// failing) it writes a repro bundle through app/repro.hpp into
// <out>/seed<N>/: config.json (world + policy configuration and the seed),
// fault_script.json (the schedule that failed, with its end_at),
// fault_script.min.json, trace.jsonl, trace.min.jsonl, snapshot.json and
// violation.txt. The greedy minimizer re-runs the seed with ops elided,
// keeping every elision that preserves the violation — shrinking a ~50-op
// schedule to the handful of faults that matter.
//
// Replay: --replay <bundle-dir> re-executes a bundle (the minimized script
// if present) and checks that the violation reproduces with a
// byte-identical JSONL trace.
//
// Every sweep writes BENCH_stress.json ($VSGC_BENCH_OUT) with one result
// row per seed, in seed order: seed, violation, fault_ops, events.
//
// Self-test: --inject-bug <step> arms a deliberate endpoint bug (a forged
// duplicate delivery) at the given churn step; with --expect-violation the
// exit code is 0 only if the bug was caught, minimized, and the minimized
// bundle replays to a violation — the CI pipeline check.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/repro.hpp"
#include "app/world.hpp"
#include "cli.hpp"
#include "obs/artifact.hpp"
#include "obs/json_fields.hpp"
#include "sim/batch.hpp"
#include "sim/failure_injector.hpp"
#include "util/assert.hpp"

namespace vsgc {
namespace {

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
  /// ops, the world's checker bundle tolerates violations inside
  /// eventual_window after an injection, and --inject-bug
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
  if (cfg.corrupt) wc.tolerance_window = cfg.eventual_window;
  if (cfg.two_tier) {
    wc.sync_routing = gcs::SyncRouting::two_tier(cfg.clients, 2);
  }
  return wc;
}

sim::FailureInjector::Policy make_policy(const StressConfig& cfg) {
  sim::FailureInjector::Policy policy;
  policy.steps = cfg.steps;
  policy.bug_at_step = cfg.bug_at_step;
  if (cfg.corrupt) {
    policy.w_corrupt = 6;
    policy.bug_is_corruption = true;
  }
  return policy;
}

using RunResult = app::RunResult<sim::FaultScript>;

/// One full execution: generate mode when `replay` is null, otherwise replay
/// of `*replay` with `elide` skipped. Any safety/liveness failure lands in
/// the result instead of propagating.
RunResult run_one(const StressConfig& cfg, std::uint64_t seed,
                  const sim::FaultScript* replay = nullptr,
                  const std::set<std::size_t>& elide = {}) {
  app::World w(world_config(cfg, seed));
  sim::FailureInjector injector(w.fault_target(), make_policy(cfg), seed);
  RunResult result = app::checked_run<sim::FaultScript>(w, [&] {
    w.start();
    if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
      throw InvariantViolation("initial convergence failed (before faults)");
    }
    if (replay != nullptr) injector.replay(*replay, elide);
    else injector.run_churn();
    w.stabilize_and_check(injector, "stress-probe-" + std::to_string(seed));
  });
  result.script = injector.script();
  return result;
}

/// vsgc_stress's side of the repro pipeline (app/repro.hpp): a bundle holds
/// config.json and fault_script{,.min}.json, and minimizing elides ops.
struct StressRepro {
  using Config = BundleConfig;
  using Script = sim::FaultScript;
  static constexpr const char* kConfigFile = "config.json";
  static constexpr const char* kScriptStem = "fault_script";
  static constexpr const char* kUnit = "ops";

  static RunResult run(const BundleConfig& b, const sim::FaultScript& s) {
    return run_one(b.cfg, b.seed, &s);
  }
  static RunResult minimize(const BundleConfig& b,
                            const sim::FaultScript& violating) {
    std::vector<std::size_t> ops(violating.ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) ops[i] = i;
    const std::set<std::size_t> elided = app::greedy_elide(
        ops, [&](const std::set<std::size_t>& trial) {
          return run_one(b.cfg, b.seed, &violating, trial).violation;
        });
    return run_one(b.cfg, b.seed, &violating, elided);
  }
  static std::size_t size(const sim::FaultScript& s) { return s.ops.size(); }
  static std::string check(const BundleConfig& b, const sim::FaultScript& s) {
    const StressConfig& cfg = b.cfg;
    // The --clients/--servers rule: a world needs at least one of each.
    if (cfg.clients < 1 || cfg.servers < 1) {
      return "clients and servers must be positive integers";
    }
    if (!s.fits(cfg.clients, cfg.servers)) {
      return "an op names a process or server outside the " +
             std::to_string(cfg.clients) + "-client, " +
             std::to_string(cfg.servers) + "-server world";
    }
    return "";
  }
};

/// Maps a --forwarding name through enum_names(ForwardingKind).
bool parse_forwarding(const std::string& text, gcs::ForwardingKind* out) {
  for (const auto& row : enum_names(*out)) {
    if (text == row.name) {
      *out = row.value;
      return true;
    }
  }
  std::cerr << "unknown --forwarding '" << text << "'\n";
  return false;
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
      if (!parse_range(value(), &cfg.seed_lo, &cfg.seed_hi)) return usage();
    } else if (arg == "--clients") {
      if (!parse_int(value(), 1, INT_MAX, &cfg.clients)) return usage();
    } else if (arg == "--servers") {
      if (!parse_int(value(), 1, INT_MAX, &cfg.servers)) return usage();
    } else if (arg == "--steps") {
      if (!parse_int(value(), 1, INT_MAX, &cfg.steps)) return usage();
    } else if (arg == "--drop") {
      if (!parse_probability(value(), &cfg.drop)) return usage();
    } else if (arg == "--two-tier") {
      cfg.two_tier = true;
    } else if (arg == "--corrupt") {
      cfg.corrupt = true;
    } else if (arg == "--eventual-window") {
      int seconds = 0;
      if (!parse_int(value(), 0, INT_MAX, &seconds)) return usage();
      cfg.eventual_window = seconds * sim::kSecond;
    } else if (arg == "--forwarding") {
      if (!parse_forwarding(value(), &cfg.forwarding)) return usage();
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else if (arg == "--no-minimize") {
      cfg.minimize = false;
    } else if (arg == "--inject-bug") {
      if (!parse_int(value(), 0, INT_MAX, &cfg.bug_at_step)) return usage();
    } else if (arg == "--expect-violation") {
      cfg.expect_violation = true;
    } else if (arg == "--replay") {
      cfg.replay_dir = value();
    } else if (arg == "--jobs") {
      if (!parse_int(value(), 0, SIZE_MAX, &cfg.jobs)) return usage();
    } else {
      return usage();
    }
  }

  if (!cfg.replay_dir.empty()) {
    return app::replay_bundle<StressRepro>(cfg.replay_dir, cfg.expect_violation,
                                           std::cout, std::cerr);
  }
  const std::uint64_t seeds = cfg.seed_hi - cfg.seed_lo + 1;

  // Parallel sweep: one fully isolated World per seed on the batch engine.
  // Results are merged (printed, tallied, bundled) strictly in seed order, so
  // stdout/stderr and every bundle are byte-identical for any --jobs value.
  const auto wall_start = std::chrono::steady_clock::now();
  sim::BatchRunner runner(cfg.jobs);
  std::vector<double> run_seconds(static_cast<std::size_t>(seeds), 0.0);
  const std::vector<RunResult> results = runner.map<RunResult>(
      static_cast<std::size_t>(seeds), [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        RunResult r = run_one(cfg, cfg.seed_lo + i);
        run_seconds[i] =
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
    serial_seconds += run_seconds[seed - cfg.seed_lo];
    artifact.tally(result.sim_stats, result.sim_time);
    obs::JsonValue& row = artifact.add_result();
    row["seed"] = seed;
    row["violation"] = result.violation;
    row["fault_ops"] = result.script.ops.size();
    row["events"] = result.sim_stats.events_executed;
    row["checker_tolerated"] = result.checker_tolerated;
    if (!result.violation) {
      std::cout << "seed " << seed << ": ok (" << result.script.ops.size()
                << " fault ops)\n";
      continue;
    }
    ++violations;
    std::cout << "seed " << seed << ": VIOLATION\n  " << result.what << "\n";
    const std::filesystem::path dir =
        std::filesystem::path(cfg.out_dir) / ("seed" + std::to_string(seed));
    if (app::write_bundle<StressRepro>(dir, BundleConfig{seed, cfg}, result,
                                       cfg.minimize, std::cerr)) {
      ++actionable;
    }
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
