// E5 — "Never delivers obsolete views" (paper Section 1).
//
// Under cascading reconfigurations (membership changing its mind R times in
// quick succession), the paper's algorithm delivers only views whose
// startId matches the latest start_change — a view superseded by a new
// start_change before the client can install it is skipped. The classic
// design runs each invocation to termination once started, so the
// application pays a view handler (blocking, state exchange, ...) for every
// obsolete view.
//
// Setup: client links at 25 ms (so installing a view takes one client round
// after its start_change), membership server round 10 ms. Each membership
// change r is a spec-legal (start_change_r, view_r) pair; the next
// start_change follows the previous view after `gap`. With gap shorter than
// the client round, intermediate views are already stale when they become
// installable.
#include "app/oracle_world.hpp"
#include "baseline/two_round_endpoint.hpp"
#include "bench/helpers.hpp"
#include "obs/span.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

constexpr sim::Time kClientLatency = 25 * sim::kMillisecond;
constexpr sim::Time kMembershipRound = 10 * sim::kMillisecond;

template <typename EndpointT>
double views_per_member_under_cascade(int n, int cascade, sim::Time gap,
                                      obs::BenchArtifact& art,
                                      obs::Registry* reg) {
  net::Network::Config cfg;
  cfg.base_latency = kClientLatency;
  cfg.jitter = 0;
  app::OracleWorld<EndpointT> w(n, /*seed=*/1, cfg);
  w.schedule_change(0, kMembershipRound, w.all());
  w.run_until(2 * sim::kSecond);

  // R spec-legal (start_change, view) pairs; pair r+1's start_change fires
  // `gap` after pair r's view.
  const sim::Time t0 = w.sim.now();
  sim::Time at = t0;
  for (int r = 0; r < cascade; ++r) {
    w.schedule_change(at, kMembershipRound, w.all());
    at += kMembershipRound + gap;
  }
  w.run_until(at + 60 * sim::kSecond);
  w.checkers.finalize();

  const obs::TraceAnalysis analysis = obs::analyze(w.trace.recorded());
  // The derived gcs.obsolete_views counter is exactly this bench's claim.
  if (reg != nullptr) obs::record_trace_metrics(analysis, *reg);
  std::uint64_t total = 0;
  for (const obs::ViewSpan& v : analysis.views) {
    if (v.installed_at > t0) ++total;  // views from the cascade only
  }
  art.tally(w.sim);
  return static_cast<double>(total) / n;
}

}  // namespace

int main() {
  std::cout << "E5: application-visible views under cascading membership "
               "changes (group of 4)\n";
  std::cout << "client link latency = " << ms(kClientLatency)
            << " ms, membership round = " << ms(kMembershipRound) << " ms\n";
  constexpr int kN = 4;
  obs::BenchArtifact art("obsolete_views");
  art.config("group_size") = kN;
  art.config("client_latency_ms") = ms(kClientLatency);
  art.config("membership_round_ms") = ms(kMembershipRound);
  obs::Registry reg;
  Table t({"cascade len", "gap (ms)", "ours: views/member",
           "baseline: views/member"});
  for (int cascade : {2, 4, 8}) {
    for (sim::Time gap : {2 * sim::kMillisecond, 10 * sim::kMillisecond,
                          100 * sim::kMillisecond}) {
      const double ours = views_per_member_under_cascade<gcs::GcsEndpoint>(
          kN, cascade, gap, art, &reg);
      const double base =
          views_per_member_under_cascade<baseline::TwoRoundEndpoint>(
              kN, cascade, gap, art, nullptr);
      t.row(cascade, ms(gap), ours, base);
      obs::JsonValue& row = art.add_result();
      row["cascade_len"] = cascade;
      row["gap_ms"] = ms(gap);
      row["ours_views_per_member"] = ours;
      row["baseline_views_per_member"] = base;
    }
  }
  t.print("views delivered per member (cascade only)");
  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: with gaps shorter than the client round "
               "(~25 ms), ours collapses the cascade to ~1 view while the "
               "baseline delivers every obsolete view; with long gaps both "
               "deliver all.\n";
  return 0;
}
