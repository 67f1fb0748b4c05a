// E1 — View-change latency: one round, in parallel with the membership.
//
// Claim (paper Sections 1, 5, 9): the client-side virtual synchrony round is
// tagged with locally unique start_change ids and therefore starts at the
// start_change notification, running IN PARALLEL with the membership
// servers' round. Classic algorithms ([7, 22]) must first learn a globally
// agreed identifier (the membership view), then run an extra agreement round
// before exchanging cuts — strictly AFTER the membership round.
//
// Setup: oracle membership with a modeled server round of `Dm`; client links
// with latency L. Expect ours ≈ max(Dm, block+sync round) and baseline ≈
// Dm + agree round + sync round — roughly 2x at Dm ≈ 2L, growing with the
// latency share of the client rounds. Group size should barely matter (all
// rounds are parallel multicasts).
#include <fstream>

#include "app/oracle_world.hpp"
#include "baseline/two_round_endpoint.hpp"
#include "bench/helpers.hpp"
#include "obs/span.hpp"
#include "obs/trace_recorder.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

constexpr sim::Time kLatency = 25 * sim::kMillisecond;
constexpr sim::Time kMembershipRound = 2 * kLatency;

/// When `timeline` is non-null, the run additionally emits the lifecycle
/// span events and copies its recorded trace into `timeline` (for the
/// Chrome-trace/JSONL export); when `reg` is non-null, the run's trace
/// metrics and layer snapshot are folded into it.
template <typename EndpointT>
double measure_view_change(int n, obs::BenchArtifact& art, obs::Registry* reg,
                           std::vector<spec::Event>* timeline) {
  net::Network::Config net_cfg;
  net_cfg.base_latency = kLatency;
  net_cfg.jitter = 0;
  app::OracleWorld<EndpointT> w(n, /*seed=*/1, net_cfg);
  if (timeline != nullptr) {
    // Fine-grained span milestones (sync-message send, wire legs) so the
    // recorded timeline decomposes into view-change phases (DESIGN.md §10).
    w.trace.set_lifecycle(true);
  }

  // Initial convergence.
  w.schedule_change(0, kMembershipRound, w.all());
  w.run_until(2 * sim::kSecond);

  // Some traffic so cuts are non-trivial.
  for (auto& ep : w.endpoints) ep->send("payload");
  w.run_until(3 * sim::kSecond);

  // Measured reconfiguration.
  const sim::Time t0 = w.sim.now();
  w.schedule_change(t0, kMembershipRound, w.all());
  w.run_until(t0 + 30 * sim::kSecond);

  w.checkers.finalize();
  const obs::TraceAnalysis analysis = obs::analyze(w.trace.recorded());
  if (reg != nullptr) {
    w.snapshot(*reg);
    obs::record_trace_metrics(analysis, *reg);
  }
  if (timeline != nullptr) *timeline = w.trace.recorded();

  art.tally(w.sim);
  // Latency = last member's installation of the new view, relative to t0.
  const sim::Time latest =
      analysis.views.empty() ? -1 : analysis.views.back().installed_at;
  return ms(latest - t0);
}

}  // namespace

int main() {
  std::cout << "E1: view-change latency — one-round (paper) vs two-round "
               "pre-agreement baseline\n";
  std::cout << "client link latency = " << ms(kLatency)
            << " ms, membership server round = " << ms(kMembershipRound)
            << " ms\n";

  obs::BenchArtifact art("view_change");
  art.config("client_latency_ms") = ms(kLatency);
  art.config("membership_round_ms") = ms(kMembershipRound);
  obs::Registry reg;
  std::vector<spec::Event> timeline;

  Table t({"group size", "ours (ms)", "baseline (ms)", "speedup"});
  for (int n : {2, 3, 4, 6, 8, 12, 16, 24}) {
    // The n=4 run of the paper's algorithm doubles as the exported timeline:
    // its Chrome trace shows the VS round overlapping the membership round.
    const bool exported = n == 4;
    const double ours = measure_view_change<gcs::GcsEndpoint>(
        n, art, exported ? &reg : nullptr, exported ? &timeline : nullptr);
    const double base = measure_view_change<baseline::TwoRoundEndpoint>(
        n, art, nullptr, nullptr);
    t.row(n, ours, base, base / ours);
    obs::JsonValue& row = art.add_result();
    row["group_size"] = n;
    row["ours_ms"] = ours;
    row["baseline_ms"] = base;
    row["speedup"] = base / ours;
  }
  t.print("view-change latency vs group size");

  // Per-phase decomposition of the exported n=4 run's measured
  // reconfiguration (its final view): for every member, the four phases
  // telescope to installed - start_change EXACTLY (obs::view_phases), so
  // each row's phase sum IS that member's end-to-end view-change latency.
  const obs::TraceAnalysis analysis = obs::analyze(timeline);
  if (!analysis.views.empty()) {
    const ViewId last = analysis.views.back().view;
    Table bt({"member", "blocking (us)", "sync send (us)",
              "membership wait (us)", "install wait (us)", "e2e (us)"});
    for (const obs::ViewSpan& vs : analysis.views) {
      if (!(vs.view == last)) continue;
      const obs::ViewPhases ph = obs::view_phases(vs);
      bt.row(static_cast<std::int64_t>(vs.p.value), ph.blocking, ph.sync_send,
             ph.membership_wait, ph.install_wait, ph.total);
      obs::JsonValue& row = art.add_result();
      row["row"] = "phase_breakdown";
      row["member"] = static_cast<std::int64_t>(vs.p.value);
      row["phase_blocking_us"] = ph.blocking;
      row["phase_sync_send_us"] = ph.sync_send;
      row["phase_membership_wait_us"] = ph.membership_wait;
      row["phase_install_wait_us"] = ph.install_wait;
      row["e2e_us"] = ph.total;
    }
    bt.print("view-change phase breakdown (n=4, measured reconfiguration)");
  }

  art.set_metrics(reg);
  const std::string dir = obs::BenchArtifact::output_dir();
  std::ofstream chrome(dir + "/TRACE_view_change.json", std::ios::binary);
  obs::write_chrome_trace(timeline, chrome);
  std::ofstream jsonl(dir + "/TRACE_view_change.jsonl", std::ios::binary);
  obs::write_jsonl(timeline, jsonl);
  if (chrome && jsonl) {
    std::cout << "[artifact] wrote " << dir
              << "/TRACE_view_change.json (open in https://ui.perfetto.dev)\n";
  } else {
    std::cerr << "obs: cannot write " << dir << "/TRACE_view_change.*\n";
  }
  art.write_file();

  std::cout << "\nShape check: ours ~ max(membership round, one client "
               "round); baseline ~ membership + two client rounds.\n";
  return 0;
}
