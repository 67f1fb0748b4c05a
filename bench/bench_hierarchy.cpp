// E10 (ablation) — Two-tier sync dissemination (paper Section 9 extension,
// after Guo et al. [22]) and the Section 5.2.4 compact-sync optimization.
//
// Claim: direct all-to-all sync dissemination costs O(n^2) messages per
// reconfiguration; the two-tier hierarchy cuts this toward O(n·L) (one
// up-send per member plus leader relays) at the price of an extra hop in
// view-change latency. Compact syncs shave bytes on merges.
#include "app/oracle_world.hpp"
#include "bench/helpers.hpp"
#include "obs/span.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

constexpr sim::Time kMembershipRound = 10 * sim::kMillisecond;

struct Result {
  std::uint64_t sync_msgs;  ///< sync copies + leader relays, per change
  std::uint64_t sync_bytes;
  double change_ms;
};

Result measure(int n, int groups /* 0 = direct */, obs::BenchArtifact& art,
               obs::Registry& reg) {
  net::Network::Config cfg;
  app::OracleWorld<> w(n, /*seed=*/1, cfg);
  if (groups > 0) {
    const auto routing = gcs::SyncRouting::two_tier(n, groups);
    for (auto& ep : w.endpoints) ep->set_sync_routing(routing);
  }
  w.schedule_change(0, kMembershipRound, w.all());
  w.run_until(2 * sim::kSecond);
  for (auto& ep : w.endpoints) ep->send("x");
  w.run_until(3 * sim::kSecond);

  std::uint64_t msgs_before = 0;
  std::uint64_t bytes_before = 0;
  for (auto& ep : w.endpoints) {
    msgs_before +=
        ep->vs_stats().sync_msgs_sent + ep->vs_stats().aggregates_relayed;
    bytes_before += ep->vs_stats().sync_bytes_sent;
  }
  const sim::Time t0 = w.sim.now();
  w.schedule_change(t0, kMembershipRound, w.all());
  w.run_until(t0 + 10 * sim::kSecond);
  w.checkers.finalize();

  Result r{};
  std::uint64_t msgs_after = 0;
  std::uint64_t bytes_after = 0;
  for (auto& ep : w.endpoints) {
    msgs_after +=
        ep->vs_stats().sync_msgs_sent + ep->vs_stats().aggregates_relayed;
    bytes_after += ep->vs_stats().sync_bytes_sent;
  }
  r.sync_msgs = msgs_after - msgs_before;
  r.sync_bytes = bytes_after - bytes_before;
  w.snapshot(reg);
  art.tally(w.sim);
  // The change ends at the last installation by any member.
  const std::vector<obs::ViewSpan> views =
      obs::analyze(w.trace.recorded()).views;
  const sim::Time latest = views.empty() ? -1 : views.back().installed_at;
  r.change_ms = ms(latest - t0);
  return r;
}

}  // namespace

int main() {
  std::cout << "E10 (ablation): sync dissemination — direct vs two-tier\n";
  obs::BenchArtifact art("hierarchy");
  art.config("membership_round_ms") = ms(kMembershipRound);
  obs::Registry reg;
  Table t({"group size", "topology", "sync msgs/change", "sync bytes",
           "view change (ms)"});
  auto add_row = [&art](int n, const std::string& topology, const Result& r) {
    obs::JsonValue& row = art.add_result();
    row["group_size"] = n;
    row["topology"] = topology;
    row["sync_msgs_per_change"] = r.sync_msgs;
    row["sync_bytes"] = r.sync_bytes;
    row["view_change_ms"] = r.change_ms;
  };
  for (int n : {8, 16, 32}) {
    const Result direct = measure(n, 0, art, reg);
    t.row(n, "direct", direct.sync_msgs, direct.sync_bytes, direct.change_ms);
    add_row(n, "direct", direct);
    for (int groups : {2, 4}) {
      const Result tiered = measure(n, groups, art, reg);
      const std::string topology = std::to_string(groups) + " leaders";
      t.row(n, topology, tiered.sync_msgs, tiered.sync_bytes,
            tiered.change_ms);
      add_row(n, topology, tiered);
    }
  }
  t.print("sync dissemination cost per reconfiguration");

  // N-sweep rows in the BENCH_scale.json sweep shape (case/n/view_change_ms),
  // so the E12 scaling tables can cross-read sync-dissemination cost against
  // the scale bench without schema translation.
  Table sweep_t({"N", "topology", "view change (ms)", "sync msgs"});
  for (int n : {8, 16, 32, 64}) {
    const int leaders = n >= 16 ? 4 : 2;
    const Result r = measure(n, leaders, art, reg);
    sweep_t.row(n, std::to_string(leaders) + " leaders", r.change_ms,
                r.sync_msgs);
    obs::JsonValue& row = art.add_result();
    row["case"] = "scale_sweep";
    row["n"] = n;
    row["leaders"] = leaders;
    row["view_change_ms"] = r.change_ms;
    row["sync_msgs_per_change"] = r.sync_msgs;
    row["sync_bytes"] = r.sync_bytes;
  }
  sweep_t.print("two-tier N-sweep (scale schema rows)");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: direct grows ~n^2; two-tier grows ~n·L with a "
               "modest latency penalty (extra relay hop).\n";
  return 0;
}
