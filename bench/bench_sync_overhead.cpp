// E3 — Reconfiguration control-message overhead.
//
// Claim: the paper's design needs exactly ONE synchronization message per
// member per view change (tagged with the locally unique start_change id);
// the classic design sends an agree message AND a sync message per member —
// twice the control messages, plus the identifier pre-agreement the paper
// eliminates. Sync message size grows with the cut (one entry per member).
#include "app/oracle_world.hpp"
#include "baseline/two_round_endpoint.hpp"
#include "bench/helpers.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

constexpr sim::Time kMembershipRound = 10 * sim::kMillisecond;

struct Overhead {
  std::uint64_t control_msgs;  // per view change, whole group
  std::uint64_t bytes;         // transport bytes during the change
};

Overhead measure_ours(int n, obs::BenchArtifact& art, obs::Registry& reg) {
  net::Network::Config cfg;
  app::OracleWorld<> w(n, /*seed=*/1, cfg);
  w.schedule_change(0, kMembershipRound, w.all());
  w.run_until(2 * sim::kSecond);
  for (auto& ep : w.endpoints) ep->send("x");
  w.run_until(3 * sim::kSecond);

  std::uint64_t bytes_before = 0;
  for (auto& tr : w.transports) bytes_before += tr->stats().bytes_sent;
  std::uint64_t sync_before = 0;
  for (auto& ep : w.endpoints) sync_before += ep->vs_stats().sync_msgs_sent;

  w.schedule_change(w.sim.now(), kMembershipRound, w.all());
  w.run_until(w.sim.now() + 5 * sim::kSecond);
  w.checkers.finalize();

  std::uint64_t bytes_after = 0;
  for (auto& tr : w.transports) bytes_after += tr->stats().bytes_sent;
  std::uint64_t sync_after = 0;
  for (auto& ep : w.endpoints) sync_after += ep->vs_stats().sync_msgs_sent;
  w.snapshot(reg);
  art.tally(w.sim);
  return {sync_after - sync_before, bytes_after - bytes_before};
}

Overhead measure_baseline(int n, obs::BenchArtifact& art) {
  net::Network::Config cfg;
  app::OracleWorld<baseline::TwoRoundEndpoint> w(n, /*seed=*/1, cfg);
  w.schedule_change(0, kMembershipRound, w.all());
  w.run_until(2 * sim::kSecond);
  for (auto& ep : w.endpoints) ep->send("x");
  w.run_until(3 * sim::kSecond);

  std::uint64_t bytes_before = 0;
  for (auto& tr : w.transports) bytes_before += tr->stats().bytes_sent;
  std::uint64_t ctrl_before = 0;
  for (auto& ep : w.endpoints) {
    ctrl_before += ep->baseline_stats().agrees_sent +
                   ep->baseline_stats().sync_msgs_sent;
  }

  w.schedule_change(w.sim.now(), kMembershipRound, w.all());
  w.run_until(w.sim.now() + 5 * sim::kSecond);
  w.checkers.finalize();

  std::uint64_t bytes_after = 0;
  for (auto& tr : w.transports) bytes_after += tr->stats().bytes_sent;
  std::uint64_t ctrl_after = 0;
  for (auto& ep : w.endpoints) {
    ctrl_after += ep->baseline_stats().agrees_sent +
                  ep->baseline_stats().sync_msgs_sent;
  }
  art.tally(w.sim);
  return {ctrl_after - ctrl_before, bytes_after - bytes_before};
}

}  // namespace

int main() {
  std::cout << "E3: control overhead per view change (whole group)\n";
  obs::BenchArtifact art("sync_overhead");
  art.config("membership_round_ms") = ms(kMembershipRound);
  obs::Registry reg;
  Table t({"group size", "ours ctrl msgs", "baseline ctrl msgs",
           "ours bytes", "baseline bytes"});
  for (int n : {2, 4, 8, 16, 32}) {
    const Overhead ours = measure_ours(n, art, reg);
    const Overhead base = measure_baseline(n, art);
    t.row(n, ours.control_msgs, base.control_msgs, ours.bytes, base.bytes);
    obs::JsonValue& row = art.add_result();
    row["group_size"] = n;
    row["ours_ctrl_msgs"] = ours.control_msgs;
    row["baseline_ctrl_msgs"] = base.control_msgs;
    row["ours_bytes"] = ours.bytes;
    row["baseline_bytes"] = base.bytes;
  }
  t.print("control messages and bytes per reconfiguration");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: ours sends exactly one sync per member; the "
               "baseline sends an agree AND a sync per member (2x), and its "
               "bytes include the extra round.\n";
  return 0;
}
