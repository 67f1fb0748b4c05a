// E12 — Sublinear-scale protocol state (DESIGN.md §13).
//
// Claim: with interval-set acks, shared-channel multiplexing, and fixed-size
// groups, per-member protocol state and view-change latency stay flat as the
// CLIENT POPULATION grows — K groups x N members shares one CO_RFIFO session
// per peer pair instead of K x N sessions, and ack/retransmit bookkeeping is
// O(log runs), not O(window).
//
// The workload: N clients spread across ~N/8 overlapping 16-member groups
// (128 groups at N=1024), Zipf-distributed multicast traffic (hot groups get
// most of the load), a flash-crowd join into the hottest groups mid-run, and
// correlated failure waves (FailureInjector kWave: a random 10% slice of the
// population isolated in one bulk call, lifted after a hold) — all under each
// group's checker bundle with a 2 s tolerance window.
//
// --check-sublinear fits log(metric) ~ e*log(N) over the sweep and fails if
// view-change latency or per-member resident bytes grows with exponent
// >= 1.15. A same-seed determinism run (N=64 twice, byte-compared JSONL)
// guards the whole optimized data plane.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "app/blocking_client.hpp"
#include "app/snapshot.hpp"
#include "bench/helpers.hpp"
#include "gcs/gcs_endpoint.hpp"
#include "gcs/process.hpp"
#include "membership/oracle.hpp"
#include "net/network.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"
#include "spec/all_checkers.hpp"
#include "transport/channel_mux.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

constexpr sim::Time kMembershipRound = 10 * sim::kMillisecond;
constexpr sim::Time kTrafficStart = 200 * sim::kMillisecond;
constexpr sim::Time kTrafficWindow = 2 * sim::kSecond;
constexpr sim::Time kFlashAt = 1200 * sim::kMillisecond;
constexpr sim::Time kEnd = 4 * sim::kSecond;
constexpr sim::Time kSampleEvery = 100 * sim::kMillisecond;
constexpr int kGroupSize = 16;
constexpr int kFlashGroups = 2;
constexpr int kFlashJoiners = 8;

struct ScaleParams {
  int n = 64;
  std::uint64_t seed = 1;
  bool record_traces = false;  ///< keep per-group JSONL (determinism run)

  int groups() const { return std::max(2, n / 8); }
};

/// One group's protocol slice: its own oracle epoch space, recording trace
/// bus, and checkers; endpoints live in the world (indexed by (group,
/// member)).
struct GroupState {
  std::set<ProcessId> base;     ///< initial members
  std::set<ProcessId> joiners;  ///< flash-crowd join set (hot groups only)
  spec::TraceBus bus;
  spec::AllCheckers checkers{2 * sim::kSecond};
  membership::OracleMembership oracle;
  ViewId initial_view = ViewId::zero();
  sim::Time initial_sc_at = 0;
  ViewId flash_view = ViewId::zero();
  sim::Time flash_sc_at = -1;
};

/// N clients, one shared transport + ChannelMux each, ~N/8 groups of 16
/// multiplexed over them (group g uses channel tag g+1).
struct ScaleWorld {
  explicit ScaleWorld(const ScaleParams& params)
      : p(params), network(sim, Rng(params.seed), net_config()) {
    for (int i = 0; i < p.n; ++i) {
      transports.push_back(std::make_unique<transport::CoRfifoTransport>(
          sim, network, net::node_of(pid(i))));
      muxes.push_back(
          std::make_unique<transport::ChannelMux>(*transports.back()));
    }
    // GroupStates live behind unique_ptr: each embeds a TraceBus whose sinks
    // (the checkers) are registered by pointer, so it must never move.
    const int spread = p.n / p.groups();
    for (int g = 0; g < p.groups(); ++g) {
      groups.push_back(std::make_unique<GroupState>());
      GroupState& gs = *groups.back();
      gs.bus.set_recording(true);
      gs.checkers.attach(gs.bus);
      const int start = g * spread;
      for (int k = 0; k < kGroupSize; ++k) {
        gs.base.insert(pid((start + k) % p.n));
      }
      if (g < kFlashGroups) {
        for (int k = 0; k < kFlashJoiners; ++k) {
          gs.joiners.insert(pid((start + kGroupSize + k) % p.n));
        }
      }
      for (ProcessId member : gs.base) add_endpoint(g, member);
      for (ProcessId member : gs.joiners) add_endpoint(g, member);
    }
  }

  static net::Network::Config net_config() {
    net::Network::Config cfg;
    cfg.drop_probability = 0.0;
    return cfg;
  }

  ProcessId pid(int i) const {
    return ProcessId{static_cast<std::uint32_t>(i + 1)};
  }

  void add_endpoint(int g, ProcessId member) {
    GroupState& gs = *groups[static_cast<std::size_t>(g)];
    const std::uint32_t tag = static_cast<std::uint32_t>(g + 1);
    transport::ChannelMux& mux = *muxes[member.value - 1];
    const transport::Channel ch = mux.open(tag, nullptr);
    auto ep = std::make_unique<gcs::GcsEndpoint>(
        sim, ch, member, gcs::make_strategy(gcs::ForwardingKind::kMinCopies),
        &gs.bus);
    mux.open(tag, [raw = ep.get()](net::NodeId from, const std::any& payload) {
      raw->on_co_rfifo_deliver(net::process_of(from), payload);
    });
    gs.oracle.attach(member, *ep);
    clients[{g, member}] = std::make_unique<app::BlockingClient>(*ep);
    endpoints[{g, member}] = std::move(ep);
  }

  /// Schedule a full reconfiguration of group g at `at`.
  void schedule_change(int g, sim::Time at, const std::set<ProcessId>& members,
                       bool flash) {
    sim.schedule_at(at, [this, g, members, flash]() {
      GroupState& gs = *groups[static_cast<std::size_t>(g)];
      (flash ? gs.flash_sc_at : gs.initial_sc_at) = sim.now();
      gs.oracle.start_change(members);
    });
    sim.schedule_at(at + kMembershipRound, [this, g, members, flash]() {
      GroupState& gs = *groups[static_cast<std::size_t>(g)];
      const View v = gs.oracle.deliver_view(members);
      (flash ? gs.flash_view : gs.initial_view) = v.id;
    });
  }

  std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const auto& t : transports) total += t->resident_bytes();
    return total;
  }

  ScaleParams p;
  sim::Simulator sim;
  ScopedSimClock log_clock{[this] { return sim.now(); }};
  net::Network network;
  std::vector<std::unique_ptr<transport::CoRfifoTransport>> transports;
  std::vector<std::unique_ptr<transport::ChannelMux>> muxes;
  std::vector<std::unique_ptr<GroupState>> groups;
  std::map<std::pair<int, ProcessId>, std::unique_ptr<gcs::GcsEndpoint>>
      endpoints;
  std::map<std::pair<int, ProcessId>, std::unique_ptr<app::BlockingClient>>
      clients;
};

struct Row {
  int n = 0;
  int groups = 0;
  double view_change_ms = 0;
  double flash_join_ms = 0;
  double msgs_per_sec = 0;
  double bytes_per_msg = 0;
  double resident_per_member = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t tolerated = 0;
  std::uint64_t sack_runs = 0;
  std::uint64_t sack_suppressed = 0;
  int waves = 0;
  std::string trace;  ///< concatenated per-group JSONL (determinism runs)
};

/// Zipf(s=1) sampler over group ranks: group 0 is the hottest.
class ZipfGroups {
 public:
  explicit ZipfGroups(int groups) {
    double total = 0;
    for (int g = 0; g < groups; ++g) {
      total += 1.0 / static_cast<double>(g + 1);
      cumulative_.push_back(total);
    }
  }

  int sample(Rng& rng) const {
    const double u = static_cast<double>(rng.next_below(1u << 30)) /
                     static_cast<double>(1u << 30) * cumulative_.back();
    for (std::size_t g = 0; g < cumulative_.size(); ++g) {
      if (u < cumulative_[g]) return static_cast<int>(g);
    }
    return static_cast<int>(cumulative_.size()) - 1;
  }

 private:
  std::vector<double> cumulative_;
};

Row measure(const ScaleParams& params, obs::BenchArtifact& art,
            obs::Registry& reg) {
  ScaleWorld w(params);
  Rng traffic_rng(params.seed * 31 + 7);
  const ZipfGroups zipf(params.groups());

  // Initial views, staggered a little so oracle rounds don't all land on one
  // simulated instant.
  for (int g = 0; g < params.groups(); ++g) {
    const sim::Time at = 10 * sim::kMillisecond + (g % 8) * sim::kMillisecond;
    w.schedule_change(g, at, w.groups[static_cast<std::size_t>(g)]->base,
                      /*flash=*/false);
  }

  // Zipf traffic: 2N multicasts across the window, heavily skewed toward the
  // hot groups. Senders are drawn uniformly within the sampled group.
  const int msgs = 2 * params.n;
  for (int i = 0; i < msgs; ++i) {
    const sim::Time at =
        kTrafficStart + (kTrafficWindow * i) / std::max(1, msgs);
    const int g = zipf.sample(traffic_rng);
    const GroupState& gs = *w.groups[static_cast<std::size_t>(g)];
    auto it = gs.base.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         traffic_rng.next_below(gs.base.size())));
    const ProcessId sender = *it;
    w.sim.schedule_at(at, [&w, g, sender, i]() {
      w.clients.at({g, sender})->send("z" + std::to_string(i));
    });
  }

  // Flash crowd: the hottest groups double-step their membership mid-run.
  for (int g = 0; g < std::min(kFlashGroups, params.groups()); ++g) {
    GroupState& gs = *w.groups[static_cast<std::size_t>(g)];
    std::set<ProcessId> grown = gs.base;
    grown.insert(gs.joiners.begin(), gs.joiners.end());
    w.schedule_change(g, kFlashAt + g * sim::kMillisecond, grown,
                      /*flash=*/true);
  }

  // Peak resident-state sampling across the run.
  std::size_t peak_resident = 0;
  for (sim::Time at = 50 * sim::kMillisecond; at < kEnd; at += kSampleEvery) {
    w.sim.schedule_at(at, [&w, &peak_resident]() {
      peak_resident = std::max(peak_resident, w.resident_bytes());
    });
  }

  w.sim.run_until(100 * sim::kMillisecond);

  // Correlated failure waves: isolate a random 10% slice in one bulk call,
  // lift it after a hold. Only the wave action is enabled.
  sim::FaultTarget target;
  target.sim = &w.sim;
  target.num_processes = params.n;
  target.set_isolated = [&w](const std::vector<int>& nodes, bool isolated) {
    std::set<net::NodeId> slice;
    for (int v : nodes) slice.insert(net::node_of(w.pid(v)));
    if (isolated) w.network.isolate(slice);
    else w.network.deisolate(slice);
  };
  target.heal = [&w] { w.network.heal(); };
  target.base_drop = w.network.config().drop_probability;
  target.base_latency = w.network.config().base_latency;
  target.base_jitter = w.network.config().jitter;
  sim::FailureInjector::Policy policy;
  policy.steps = 3;
  policy.min_gap = 600 * sim::kMillisecond;
  policy.max_gap = 800 * sim::kMillisecond;
  policy.w_traffic = 0;
  policy.w_crash = 0;
  policy.w_recover = 0;
  policy.w_leave = 0;
  policy.w_rejoin = 0;
  policy.w_partition = 0;
  policy.w_heal = 0;
  policy.w_link = 0;
  policy.w_drop_spike = 0;
  policy.w_delay_burst = 0;
  policy.w_server_outage = 0;
  policy.w_crash_in_delivery = 0;
  policy.w_partition_in_view_change = 0;
  policy.w_wave = 1;
  sim::FailureInjector injector(target, policy, params.seed);
  injector.run_churn();
  injector.stabilize();
  w.sim.run_until(kEnd);

  Row r;
  r.n = params.n;
  r.groups = params.groups();
  int waves = 0;
  for (const sim::FaultOp& op : injector.script().ops) {
    if (op.kind == sim::FaultOp::Kind::kWave) ++waves;
  }
  r.waves = waves;

  double latency_sum = 0;
  int latency_rows = 0;
  double flash_sum = 0;
  int flash_rows = 0;
  std::ostringstream trace_cat;
  for (const auto& gp : w.groups) {
    GroupState& gs = *gp;
    gs.checkers.finalize();
    r.tolerated += gs.checkers.tolerated();
    const std::vector<spec::Event>& trace = gs.bus.recorded();
    r.deliveries += static_cast<std::uint64_t>(
        std::count_if(trace.begin(), trace.end(), [](const spec::Event& ev) {
          return std::holds_alternative<spec::GcsDeliver>(ev.body);
        }));
    // Latest installation of view `id` by any member, or -1.
    const std::vector<obs::ViewSpan> views = obs::analyze(trace).views;
    const auto install_time = [&views](ViewId id) {
      sim::Time latest = -1;
      for (const obs::ViewSpan& v : views) {
        if (v.view == id) latest = std::max(latest, v.installed_at);
      }
      return latest;
    };
    const sim::Time installed = install_time(gs.initial_view);
    if (installed >= 0) {
      latency_sum += ms(installed - gs.initial_sc_at);
      ++latency_rows;
    }
    if (gs.flash_sc_at >= 0) {
      const sim::Time flashed = install_time(gs.flash_view);
      if (flashed >= 0) {
        flash_sum += ms(flashed - gs.flash_sc_at);
        ++flash_rows;
      }
    }
    if (params.record_traces) obs::write_jsonl(trace, trace_cat);
  }
  r.view_change_ms = latency_rows > 0 ? latency_sum / latency_rows : -1;
  r.flash_join_ms = flash_rows > 0 ? flash_sum / flash_rows : -1;
  r.msgs_per_sec = static_cast<double>(r.deliveries) /
                   (static_cast<double>(kEnd) / sim::kSecond);
  r.bytes_per_msg =
      static_cast<double>(w.network.stats().bytes_sent) /
      static_cast<double>(std::max<std::uint64_t>(1, r.deliveries));
  peak_resident = std::max(peak_resident, w.resident_bytes());
  r.resident_per_member =
      static_cast<double>(peak_resident) / static_cast<double>(params.n);
  for (const auto& t : w.transports) {
    r.sack_runs += t->stats().sack_runs_sent;
    r.sack_suppressed += t->stats().sack_suppressed;
  }
  r.trace = trace_cat.str();

  app::snapshot_network(w.network, reg);
  reg.counter("scale.sack_runs_sent").inc(r.sack_runs);
  reg.counter("scale.sack_suppressed").inc(r.sack_suppressed);
  reg.counter("scale.checker_tolerated").inc(r.tolerated);
  reg.gauge("scale.peak_resident_bytes")
      .max_of(static_cast<std::int64_t>(peak_resident));
  art.tally(w.sim);
  return r;
}

/// Least-squares slope of log(y) against log(n): the growth exponent.
double fit_exponent(const std::vector<std::pair<int, double>>& points) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double count = static_cast<double>(points.size());
  for (const auto& [n, y] : points) {
    const double x = std::log(static_cast<double>(n));
    const double ly = std::log(std::max(y, 1e-9));
    sx += x;
    sy += ly;
    sxx += x * x;
    sxy += x * ly;
  }
  const double denom = count * sxx - sx * sx;
  return denom == 0 ? 0 : (count * sxy - sx * sy) / denom;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_sublinear = false;
  double max_exponent = 1.15;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-sublinear") == 0) {
      check_sublinear = true;
    } else if (std::strcmp(argv[i], "--max-exponent") == 0 && i + 1 < argc) {
      max_exponent = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_scale [--check-sublinear] "
                   "[--max-exponent E]\n";
      return 2;
    }
  }

  std::cout << "E12: sublinear-scale protocol state — N-sweep with Zipf "
               "traffic, flash crowds, failure waves\n";
  obs::BenchArtifact art("scale");
  art.config("group_size") = kGroupSize;
  art.config("membership_round_ms") = ms(kMembershipRound);
  art.config("wave_fraction") = sim::FailureInjector::kWaveFraction;
  art.config("zipf_s") = 1.0;
  obs::Registry reg;
  Table t({"N", "groups", "view change (ms)", "flash join (ms)", "msgs/s",
           "bytes/msg", "resident B/member", "waves", "tolerated"});

  std::vector<Row> rows;
  for (int n : {64, 256, 1024}) {
    ScaleParams params;
    params.n = n;
    rows.push_back(measure(params, art, reg));
    const Row& r = rows.back();
    t.row(r.n, r.groups, r.view_change_ms, r.flash_join_ms, r.msgs_per_sec,
          r.bytes_per_msg, r.resident_per_member, r.waves, r.tolerated);
    obs::JsonValue& row = art.add_result();
    row["case"] = "sweep";
    row["n"] = r.n;
    row["groups"] = r.groups;
    row["view_change_ms"] = r.view_change_ms;
    row["flash_join_ms"] = r.flash_join_ms;
    row["msgs_per_sec"] = r.msgs_per_sec;
    row["bytes_per_msg"] = r.bytes_per_msg;
    row["resident_bytes_per_member"] = r.resident_per_member;
    row["deliveries"] = r.deliveries;
    row["waves"] = r.waves;
    row["checker_tolerated"] = r.tolerated;
    row["sack_runs_sent"] = r.sack_runs;
    row["sack_suppressed"] = r.sack_suppressed;
  }
  t.print("scale sweep (fixed 16-member groups, ~N/8 groups)");

  std::vector<std::pair<int, double>> latency_points, resident_points;
  for (const Row& r : rows) {
    latency_points.push_back({r.n, r.view_change_ms});
    resident_points.push_back({r.n, r.resident_per_member});
  }
  const double latency_exp = fit_exponent(latency_points);
  const double resident_exp = fit_exponent(resident_points);
  bool gates_ok = true;
  for (const auto& [metric, exponent] :
       {std::pair<const char*, double>{"view_change_ms", latency_exp},
        std::pair<const char*, double>{"resident_bytes_per_member",
                                       resident_exp}}) {
    const bool sublinear = exponent < max_exponent;
    gates_ok = gates_ok && sublinear;
    std::cout << "fit " << metric << ": exponent "
              << obs::format_double(exponent) << " (gate < " << max_exponent
              << ") " << (sublinear ? "OK" : "FAIL") << "\n";
    obs::JsonValue& row = art.add_result();
    row["case"] = "fit";
    row["metric"] = metric;
    row["exponent"] = exponent;
    row["sublinear"] = sublinear;
  }

  // Same-seed determinism: the whole optimized data plane (interval acks,
  // SACK retransmits, multiplexed channels) must replay byte-identically.
  ScaleParams det;
  det.n = 64;
  det.record_traces = true;
  obs::BenchArtifact scratch("scale_scratch");  // never written
  obs::Registry scratch_reg;
  const Row first = measure(det, scratch, scratch_reg);
  const Row second = measure(det, scratch, scratch_reg);
  const bool identical =
      !first.trace.empty() && first.trace == second.trace;
  std::cout << "determinism (N=64, same seed twice): "
            << (identical ? "byte-identical" : "DIVERGED") << " ("
            << first.trace.size() << " JSONL bytes)\n";
  obs::JsonValue& det_row = art.add_result();
  det_row["case"] = "determinism";
  det_row["n"] = det.n;
  det_row["identical"] = identical;
  det_row["trace_bytes"] = first.trace.size();

  art.set_metrics(reg);
  art.write_file();

  if (!identical) return 1;
  if (check_sublinear && !gates_ok) return 1;
  return 0;
}
