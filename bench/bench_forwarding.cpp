// E4 — Forwarding strategies (Section 5.2.2): Simple vs MinCopies.
//
// Scenario: sender p1's messages reach only half the group before p1 is
// excluded; the committed members must forward the missing messages to the
// rest before the new view installs. Claim: the Simple strategy may ship
// multiple copies per missing message (every committed member forwards);
// MinCopies deterministically picks one forwarder per message — near-minimal
// copies — at the price of waiting for the membership view and all sync
// messages.
#include "app/oracle_world.hpp"
#include "bench/helpers.hpp"
#include "obs/span.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

struct Result {
  std::uint64_t forwarded_copies;
  double recovery_ms;  // reconfiguration start -> last member in new view
  bool complete;
};

Result run_case(int n, int missing_msgs, gcs::ForwardingKind kind,
                obs::BenchArtifact& art, obs::Registry& reg) {
  net::Network::Config cfg;
  app::OracleWorld<> w(n, /*seed=*/7, cfg, kind);

  w.schedule_change(0, 10 * sim::kMillisecond, w.all());
  w.run_until(sim::kSecond);

  // Half the group (the "far" half) loses its links to p1.
  for (int i = n / 2; i < n; ++i) {
    w.network.set_link_up(net::node_of(w.pid(0)), net::node_of(w.pid(i)),
                          false);
  }
  for (int k = 0; k < missing_msgs; ++k) {
    w.endpoints[0]->send("lost" + std::to_string(k));
  }
  w.run_until(w.sim.now() + sim::kSecond);

  // p1 is excluded; the rest reconfigure.
  w.endpoints[0]->crash();
  w.transports[0]->crash();
  std::set<ProcessId> rest;
  for (int i = 1; i < n; ++i) rest.insert(w.pid(i));
  const sim::Time t0 = w.sim.now();
  for (ProcessId p : rest) w.oracle.start_change_to(p, rest);
  w.sim.schedule(10 * sim::kMillisecond, [&w, rest]() {
    const View v = w.oracle.make_view(rest);
    for (ProcessId p : rest) w.oracle.deliver_view_to(p, v);
  });
  w.run_until(t0 + 30 * sim::kSecond);
  w.checkers.finalize();

  Result r{};
  for (std::size_t i = 1; i < w.endpoints.size(); ++i) {
    r.forwarded_copies += w.endpoints[i]->vs_stats().forwards_sent;
  }
  w.snapshot(reg);
  art.tally(w.sim);
  // Recovery ends at the latest installation by any survivor; the run is
  // complete only if every survivor installed some view.
  std::map<ProcessId, sim::Time> installed;
  for (const obs::ViewSpan& v : obs::analyze(w.trace.recorded()).views) {
    installed[v.p] = v.installed_at;
  }
  sim::Time latest = -1;
  r.complete = true;
  for (ProcessId p : rest) {
    const auto it = installed.find(p);
    if (it == installed.end()) {
      r.complete = false;
      continue;
    }
    latest = std::max(latest, it->second);
  }
  r.recovery_ms = ms(latest - t0);
  return r;
}

}  // namespace

int main() {
  std::cout << "E4: forwarding strategies — copies shipped and recovery time\n";
  std::cout << "(half the group misses the excluded sender's messages)\n";
  obs::BenchArtifact art("forwarding");
  art.config("seed") = 7;
  obs::Registry reg;
  Table t({"group size", "missing msgs", "strategy", "fwd copies",
           "recovery (ms)", "ok"});
  for (int n : {4, 6, 10}) {
    for (int m : {1, 5, 20}) {
      for (auto kind :
           {gcs::ForwardingKind::kSimple, gcs::ForwardingKind::kMinCopies}) {
        const Result r = run_case(n, m, kind, art, reg);
        const char* strategy =
            kind == gcs::ForwardingKind::kSimple ? "simple" : "min-copies";
        t.row(n, m, strategy, r.forwarded_copies, r.recovery_ms,
              r.complete ? "yes" : "NO");
        obs::JsonValue& row = art.add_result();
        row["group_size"] = n;
        row["missing_msgs"] = m;
        row["strategy"] = strategy;
        row["forwarded_copies"] = r.forwarded_copies;
        row["recovery_ms"] = r.recovery_ms;
        row["complete"] = r.complete;
      }
    }
  }
  t.print("forwarded copies vs strategy");

  // N-sweep rows in the BENCH_scale.json sweep shape (case/n/view_change_ms):
  // recovery after an excluded sender IS the view-change latency here, so the
  // E12 scaling tables can line these up against the scale bench directly.
  Table sweep_t({"N", "view change (ms)", "fwd copies"});
  for (int n : {4, 8, 16}) {
    const Result r = run_case(n, 5, gcs::ForwardingKind::kMinCopies, art, reg);
    sweep_t.row(n, r.recovery_ms, r.forwarded_copies);
    obs::JsonValue& row = art.add_result();
    row["case"] = "scale_sweep";
    row["n"] = n;
    row["view_change_ms"] = r.recovery_ms;
    row["forwarded_copies"] = r.forwarded_copies;
    row["complete"] = r.complete;
  }
  sweep_t.print("min-copies N-sweep (scale schema rows)");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: min-copies ships ~ (missing msgs x missing "
               "members) copies exactly once; simple ships more (every "
               "committed member may forward).\n";
  return 0;
}
