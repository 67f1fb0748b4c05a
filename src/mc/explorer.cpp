#include "mc/explorer.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "app/world.hpp"
#include "sim/batch.hpp"
#include "util/assert.hpp"

namespace vsgc::mc {

namespace {

/// Batch size for parallel scenario execution: enough slack over the worker
/// count that stealing can balance uneven run lengths, small enough that a
/// violation or budget stop wastes little speculative work. Chunks are always
/// additionally clamped to the remaining run budget and frontier.
std::size_t chunk_size(const sim::BatchRunner& runner) {
  return std::max<std::size_t>(runner.jobs() * 4, 1);
}

/// FNV-1a over a choice sequence: two runs with equal signatures consumed
/// identical choices and are therefore the same execution.
std::uint64_t signature(const std::vector<Choice>& choices) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const Choice& c : choices) {
    for (const char ch : c.kind) mix(static_cast<unsigned char>(ch));
    mix(c.n);
    mix(c.pick);
  }
  return h;
}

std::uint64_t trace_hash(const std::vector<spec::Event>& trace) {
  const std::string text = app::render_trace(trace);
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario execution
// ---------------------------------------------------------------------------

std::vector<sim::FaultOp> fault_menu(const ScenarioConfig& sc) {
  std::vector<sim::FaultOp> menu;
  for (int i = 0; i < sc.clients; ++i) {
    sim::FaultOp op;
    op.kind = sim::FaultOp::Kind::kCrash;
    op.a = i;
    menu.push_back(op);
  }
  for (int i = 0; i < sc.clients; ++i) {
    sim::FaultOp op;
    op.kind = sim::FaultOp::Kind::kLinkDown;
    op.a = sim::encode_process(i);
    op.b = sim::encode_server(0);
    op.oneway = true;  // p_i -> s0 down, reverse direction untouched
    menu.push_back(op);
  }
  if (sc.servers >= 2) {
    for (int s = 0; s < sc.servers; ++s) {
      sim::FaultOp op;
      op.kind = sim::FaultOp::Kind::kServerDown;
      op.a = s;
      menu.push_back(op);
    }
  }
  if (sc.corruption && sc.clients >= 2) {
    // One deterministic entry per recoverable corruption kind, all aimed at
    // the p0 -> p1 stream / p0's membership floor so explorations stay
    // comparable across scenarios (DESIGN.md §12).
    const auto corrupt = [&menu](sim::FaultOp::Kind kind, int b,
                                 std::uint64_t v) {
      sim::FaultOp op;
      op.kind = kind;
      op.a = 0;
      op.b = b;
      op.v = v;
      menu.push_back(op);
    };
    corrupt(sim::FaultOp::Kind::kCorruptSeq, 1, 4);
    corrupt(sim::FaultOp::Kind::kCorruptAck, 1, 3);
    corrupt(sim::FaultOp::Kind::kCorruptReliable, 1, 0);
    corrupt(sim::FaultOp::Kind::kCorruptView, -1, std::uint64_t{1} << 40);
    corrupt(sim::FaultOp::Kind::kCorruptBackoff, 1, 0);
  }
  if (sc.inject_bug) {
    sim::FaultOp op;
    if (sc.corruption) {
      // Corruption-family planted bug: wedge p0's installed view epoch so no
      // future view can be delivered — unrecoverable by design, so the
      // stabilize epilogue's reconvergence check must flag it even under the
      // eventual-safety bundle.
      op.kind = sim::FaultOp::Kind::kBugCorruptWedge;
      op.a = 0;
      op.v = std::uint64_t{1} << 40;
    } else {
      op.kind = sim::FaultOp::Kind::kBugDupDeliver;
    }
    menu.push_back(op);
  }
  return menu;
}

RunResult run_scenario(const ScenarioConfig& sc, RecordingController& ctl) {
  app::WorldConfig wc;
  wc.num_clients = sc.clients;
  wc.num_servers = sc.servers;
  wc.seed = sc.seed;
  wc.net.drop_probability = sc.drop;
  wc.net.jitter = sc.jitter;
  if (sc.corruption) wc.tolerance_window = 30 * sim::kSecond;
  app::World w(wc);

  sim::FailureInjector injector(w.fault_target(), {}, sc.seed);
  const std::vector<sim::FaultOp> menu = fault_menu(sc);

  RunResult out = app::checked_run<ScheduleScript>(w, [&] {
    w.start();
    if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
      throw InvariantViolation("initial convergence failed (before control)");
    }

    // ---- Controlled window: the schedule is now the controller's. ----
    w.sim().set_nondet(&ctl);
    w.network().set_nondet(&ctl);
    for (int m = 0; m < sc.messages; ++m) {
      sim::FaultOp op;
      op.kind = sim::FaultOp::Kind::kTraffic;
      op.a = m % sc.clients;
      op.payload = "mc-" + std::to_string(m);
      injector.apply_now(op);
    }
    if (sc.trigger_leave && sc.clients > 1) {
      sim::FaultOp op;
      op.kind = sim::FaultOp::Kind::kLeave;
      op.a = sc.clients - 1;
      injector.apply_now(op);
    }
    for (int slot = 0; slot < sc.fault_slots; ++slot) {
      w.run_for(sc.slot_gap);
      if (menu.empty()) continue;
      const std::size_t pick = ctl.choose("mc.fault", menu.size() + 1);
      if (pick > 0) injector.apply_now(menu[pick - 1]);
    }
    w.run_for(sc.settle);
    w.sim().set_nondet(nullptr);
    w.network().set_nondet(nullptr);

    w.stabilize_and_check(injector, "mc-probe");
  });
  w.sim().set_nondet(nullptr);
  w.network().set_nondet(nullptr);
  out.script.seed = sc.seed;
  out.script.choices = ctl.trace();
  return out;
}

RunResult run_scenario(const ScenarioConfig& sc,
                       const std::vector<std::uint32_t>& forced) {
  ScriptController ctl(forced);
  return run_scenario(sc, ctl);
}

RunResult ScenarioRepro::minimize(const ScenarioConfig& sc,
                                  const ScheduleScript& violating) {
  const std::vector<std::uint32_t> picks = violating.picks();
  const auto reset = [&picks](const std::set<std::size_t>& elided) {
    std::vector<std::uint32_t> out = picks;
    for (const std::size_t i : elided) out[i] = 0;
    return out;
  };
  std::vector<std::size_t> deviations;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (picks[i] != 0) deviations.push_back(i);
  }
  std::vector<std::uint32_t> min = reset(app::greedy_elide(
      deviations, [&](const std::set<std::size_t>& trial) {
        return run_scenario(sc, reset(trial)).violation;
      }));
  while (!min.empty() && min.back() == 0) min.pop_back();
  return run_scenario(sc, min);
}

std::string ScenarioRepro::check(const ScenarioConfig& sc,
                                 const ScheduleScript&) {
  // The --clients/--servers rule: a world needs at least one of each.
  if (sc.clients < 1 || sc.servers < 1) {
    return "clients and servers must be positive integers";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

std::optional<RunResult> Explorer::explore() {
  stats_ = ExploreStats{};
  std::set<std::uint64_t> seen_traces;
  std::vector<std::vector<std::uint32_t>> level;
  level.push_back({});  // the default schedule

  const sim::BatchRunner runner(xc_.jobs);
  for (int depth = 0; depth <= xc_.max_deviations && !level.empty(); ++depth) {
    ExploreStats::Level lvl;
    lvl.depth = depth;
    std::vector<std::vector<std::uint32_t>> next;
    // Execute the frontier in order-preserving chunks: each chunk runs in
    // parallel, then merges sequentially in frontier order. A violation or
    // budget stop discards the chunk's tail, so stats and the returned run
    // are exactly what a sequential (--jobs 1) exploration produces.
    std::size_t pos = 0;
    while (pos < level.size()) {
      if (stats_.runs >= xc_.max_runs) {
        stats_.budget_exhausted = true;
        stats_.levels.push_back(lvl);
        return std::nullopt;
      }
      const std::size_t chunk = std::min(
          {level.size() - pos,
           static_cast<std::size_t>(xc_.max_runs - stats_.runs),
           chunk_size(runner)});
      std::vector<RunResult> batch = runner.map<RunResult>(
          chunk,
          [&](std::size_t i) { return run_scenario(sc_, level[pos + i]); });
      for (std::size_t b = 0; b < chunk; ++b) {
        const std::vector<std::uint32_t>& prefix = level[pos + b];
        RunResult& run = batch[b];
        ++stats_.runs;
        ++lvl.runs;
        stats_.choice_points += run.script.choices.size();
        tally(run);
        if (seen_traces.insert(trace_hash(run.trace)).second) {
          ++stats_.unique_traces;
        }
        if (run.violation) {
          ++stats_.violations;
          stats_.levels.push_back(lvl);
          return std::move(run);
        }
        if (depth == xc_.max_deviations) continue;  // no children past bound
        // A run is a function of its picks, and a child forces the parent's
        // consumed picks before its own deviation, so every child is a new
        // schedule (no pick is clamped) and is generated exactly once.
        const std::size_t horizon =
            std::min(run.script.choices.size(), xc_.horizon);
        for (std::size_t i = prefix.size(); i < horizon; ++i) {
          const Choice& c = run.script.choices[i];
          for (std::uint32_t pick = 1; pick < c.n; ++pick) {
            std::vector<std::uint32_t> child;
            child.reserve(i + 1);
            for (std::size_t k = 0; k < i; ++k) {
              child.push_back(run.script.choices[k].pick);
            }
            child.push_back(pick);
            next.push_back(std::move(child));
            ++lvl.enqueued;
          }
        }
      }
      pos += chunk;
    }
    stats_.depth_completed = depth;
    stats_.levels.push_back(lvl);
    level = std::move(next);
  }
  stats_.frontier_exhausted = true;
  return std::nullopt;
}

std::optional<RunResult> Explorer::random_walk(std::uint64_t seed_lo,
                                               std::uint64_t seed_hi) {
  stats_ = ExploreStats{};
  std::set<std::uint64_t> seen_signatures;
  std::set<std::uint64_t> seen_traces;
  const sim::BatchRunner runner(xc_.jobs);
  // Same chunked discipline as explore(): parallel execution in seed order,
  // sequential merge, chunk tail discarded on violation/budget stop.
  std::uint64_t seed = seed_lo;
  while (seed <= seed_hi) {
    if (stats_.runs >= xc_.max_runs) {
      stats_.budget_exhausted = true;
      return std::nullopt;
    }
    const std::size_t chunk = static_cast<std::size_t>(
        std::min({seed_hi - seed + 1, xc_.max_runs - stats_.runs,
                  static_cast<std::uint64_t>(chunk_size(runner))}));
    std::vector<RunResult> batch =
        runner.map<RunResult>(chunk, [&](std::size_t i) {
          RandomController ctl(seed + i);
          return run_scenario(sc_, ctl);
        });
    for (std::size_t b = 0; b < chunk; ++b) {
      RunResult& run = batch[b];
      ++stats_.runs;
      stats_.choice_points += run.script.choices.size();
      tally(run);
      if (!seen_signatures.insert(signature(run.script.choices)).second) {
        ++stats_.deduped;
        continue;
      }
      if (seen_traces.insert(trace_hash(run.trace)).second) {
        ++stats_.unique_traces;
      }
      if (run.violation) {
        ++stats_.violations;
        return std::move(run);
      }
    }
    seed += chunk;
  }
  return std::nullopt;
}

}  // namespace vsgc::mc
