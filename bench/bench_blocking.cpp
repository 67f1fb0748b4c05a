// E6 — Application blocking window during reconfiguration (Section 5.3).
//
// Implementing Self Delivery together with Virtual Synchrony requires
// blocking the application while a view change is in progress (proven in
// [19]). The window runs from block() until the new view is delivered. The
// one-round design keeps this window ~ one client round overlapped with the
// membership round; in-flight traffic lengthens it only by the time needed
// to drain the agreed cut.
#include "app/oracle_world.hpp"
#include "bench/helpers.hpp"
#include "obs/span.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

constexpr sim::Time kMembershipRound = 20 * sim::kMillisecond;

double measure_block_window(int n, int inflight_msgs, double drop,
                            obs::BenchArtifact& art, obs::Registry& reg) {
  net::Network::Config cfg;
  cfg.base_latency = 5 * sim::kMillisecond;
  cfg.jitter = 0;
  cfg.drop_probability = drop;
  app::OracleWorld<> w(n, /*seed=*/1, cfg);

  w.schedule_change(0, kMembershipRound, w.all());
  w.run_until(sim::kSecond);
  const sim::Time t0 = w.sim.now();

  // Load the group with in-flight traffic, then reconfigure immediately.
  for (int k = 0; k < inflight_msgs; ++k) {
    for (auto& ep : w.endpoints) ep->send("traffic");
  }
  w.schedule_change(w.sim.now(), kMembershipRound, w.all());
  w.run_until(w.sim.now() + 30 * sim::kSecond);
  w.checkers.finalize();

  w.snapshot(reg);
  art.tally(w.sim);
  // One analysis feeds the artifact's gcs.blocking_window_us histogram and
  // this row: the block -> view window of every view installed after t0.
  const obs::TraceAnalysis analysis = obs::analyze(w.trace.recorded());
  obs::record_trace_metrics(analysis, reg);
  sim::Time sum = 0;
  sim::Time windows = 0;
  for (const obs::ViewSpan& v : analysis.views) {
    if (v.installed_at <= t0 || v.block_at < 0) continue;
    sum += v.installed_at - v.block_at;
    ++windows;
  }
  if (windows == 0) return -1;
  return ms(sum / windows);
}

}  // namespace

int main() {
  std::cout << "E6: application send-blocking window during a view change\n";
  std::cout << "(5 ms links, 20 ms membership round)\n";
  obs::BenchArtifact art("blocking");
  art.config("link_latency_ms") = 5.0;
  art.config("membership_round_ms") = ms(kMembershipRound);
  obs::Registry reg;
  Table t({"group size", "in-flight msgs/member", "loss", "avg block window (ms)"});
  for (int n : {3, 6, 10}) {
    for (int load : {0, 100}) {
      for (double drop : {0.0, 0.3}) {
        const double window = measure_block_window(n, load, drop, art, reg);
        t.row(n, load, drop, window);
        obs::JsonValue& row = art.add_result();
        row["group_size"] = n;
        row["inflight_msgs_per_member"] = load;
        row["drop_probability"] = drop;
        row["avg_block_window_ms"] = window;
      }
    }
  }
  t.print("blocking window vs group size, in-flight load, and loss");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: ~ membership round when the agreed cut drains "
               "inside it (idle or clean network); grows when loss forces "
               "retransmissions to fill the cut before the view installs.\n";
  return 0;
}
