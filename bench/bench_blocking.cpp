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

using namespace vsgc;
using namespace vsgc::bench;

namespace {

constexpr sim::Time kMembershipRound = 20 * sim::kMillisecond;

/// Every GCS.block -> GCS.view window in `trace` that closes at event index
/// `from` or later (the block itself may come earlier).
std::vector<sim::Time> block_windows(const std::vector<spec::Event>& trace,
                                     std::size_t from) {
  std::map<ProcessId, sim::Time> block_at;
  std::vector<sim::Time> windows;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const spec::Event& ev = trace[i];
    if (const auto* b = std::get_if<spec::GcsBlock>(&ev.body)) {
      block_at[b->p] = ev.at;
    } else if (const auto* v = std::get_if<spec::GcsView>(&ev.body)) {
      auto it = block_at.find(v->p);
      if (it != block_at.end()) {
        if (i >= from) windows.push_back(ev.at - it->second);
        block_at.erase(it);
      }
    }
  }
  return windows;
}

double measure_block_window(int n, int inflight_msgs, double drop,
                            obs::BenchArtifact& art, obs::Registry& reg) {
  net::Network::Config cfg;
  cfg.base_latency = 5 * sim::kMillisecond;
  cfg.jitter = 0;
  cfg.drop_probability = drop;
  app::OracleWorld<> w(n, /*seed=*/1, cfg);
  obs::MetricsCollector collector(reg);  // gcs.blocking_window_us histogram
  w.trace.subscribe(collector);

  w.schedule_change(0, kMembershipRound, w.all());
  w.run_until(sim::kSecond);
  const std::size_t measured_from = w.trace.recorded().size();

  // Load the group with in-flight traffic, then reconfigure immediately.
  for (int k = 0; k < inflight_msgs; ++k) {
    for (auto& ep : w.endpoints) ep->send("traffic");
  }
  w.schedule_change(w.sim.now(), kMembershipRound, w.all());
  w.run_until(w.sim.now() + 30 * sim::kSecond);
  w.checkers.finalize();

  record_network_stats(reg, w.network);
  art.tally(w.sim);
  const std::vector<sim::Time> windows =
      block_windows(w.trace.recorded(), measured_from);
  if (windows.empty()) return -1;
  sim::Time sum = 0;
  for (sim::Time t : windows) sum += t;
  return ms(sum / static_cast<sim::Time>(windows.size()));
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
