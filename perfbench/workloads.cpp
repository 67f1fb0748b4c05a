#include "workloads.hpp"

#include <algorithm>
#include <any>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "net/network.hpp"
#include "sim/failure_injector.hpp"
#include "sim/simulator.hpp"
#include "spec/all_checkers.hpp"
#include "spec/liveness_checker.hpp"
#include "transport/co_rfifo.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace vsgc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms(sim::Time t) { return static_cast<double>(t) / sim::kMillisecond; }

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t index) {
  return mix(mix(seed) ^ index);
}

constexpr int kPayloadBytes = 64;
constexpr sim::Time kTick = 1 * sim::kMillisecond;

// ---------------------------------------------------------------------------
// Per-(receiver, sender) delivery bookkeeping: exactly once, in FIFO order,
// and simulated latency from when each send was due.
// ---------------------------------------------------------------------------

class DeliveryLog {
 public:
  /// Senders send on one schedule: `burst` messages each per tick from
  /// `start`, so message seq (1-based) of any sender was due at
  /// start + ((seq - 1) / burst) ticks.
  DeliveryLog(int receivers, int senders, int burst, std::size_t sends_per_sender)
      : receivers_(receivers),
        senders_(senders),
        burst_(burst),
        sent_(static_cast<std::size_t>(senders), 0),
        delivered_(static_cast<std::size_t>(receivers * senders), 0) {
    latency_ms_.reserve(static_cast<std::size_t>(receivers) *
                        static_cast<std::size_t>(senders) * sends_per_sender);
  }

  void start(sim::Time at) { start_ = at; }
  void sent(int sender) { ++sent_[static_cast<std::size_t>(sender)]; }

  void delivered(int receiver, int sender, std::uint64_t seq, sim::Time now) {
    ++deliveries_;
    if (sender < 0 || sender >= senders_) {
      ++errors_;
      return;
    }
    std::uint64_t& count = delivered_[slot(receiver, sender)];
    if (seq != count + 1 || count >= sent_[static_cast<std::size_t>(sender)]) {
      ++errors_;  // duplicate, gap or reordering
      return;
    }
    const sim::Time due =
        start_ + static_cast<sim::Time>(count / static_cast<std::uint64_t>(burst_)) * kTick;
    latency_ms_.push_back(static_cast<float>(ms(now - due)));
    ++count;
  }

  std::uint64_t expected() const {
    std::uint64_t sends = 0;
    for (std::uint64_t n : sent_) sends += n;
    return sends * static_cast<std::uint64_t>(receivers_);
  }
  std::uint64_t deliveries() const { return deliveries_; }
  bool complete() const { return in_order() == expected(); }

  /// Expected deliveries that did not happen exactly once and in order.
  std::uint64_t failed() const {
    return std::max(expected() - in_order(), errors_);
  }

  std::vector<float>& latency_ms() { return latency_ms_; }

 private:
  std::size_t slot(int r, int s) const {
    return static_cast<std::size_t>(r * senders_ + s);
  }
  std::uint64_t in_order() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : delivered_) n += c;
    return n;
  }

  int receivers_;
  int senders_;
  int burst_;
  sim::Time start_ = 0;
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> delivered_;
  std::vector<float> latency_ms_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t errors_ = 0;
};

/// Throughput of consecutive windows of `ticks` measured ticks each (fewer
/// when the rep is shorter). A window is short enough that many of them fit
/// in the undisturbed stretches of a shared host, and at least one 50 ms
/// membership heartbeat interval long, so that every periodic task (acks,
/// heartbeats, retransmit timers) takes its usual share of it.
class WindowMeter {
 public:
  WindowMeter(int ticks, int rep_ticks, std::vector<double>& out)
      : ticks_(std::min(ticks, rep_ticks)), out_(out) {}

  void start(std::uint64_t ops) {
    ops0_ = ops;
    t0_ = Clock::now();
  }
  /// Call after each tick with the ops completed so far.
  void tick(std::uint64_t ops) {
    if (++n_ % ticks_ != 0) return;
    out_.push_back(static_cast<double>(ops - ops0_) / seconds_since(t0_));
    start(ops);
  }

 private:
  int ticks_;
  std::vector<double>& out_;
  int n_ = 0;
  std::uint64_t ops0_ = 0;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// Layer counters.
// ---------------------------------------------------------------------------

void add_transport(Counters& c, const transport::CoRfifoTransport::Stats& s) {
  c.frames += s.frames_sent;
  c.entries += s.entries_sent;
  c.standalone_acks += s.acks_sent;
  c.retransmissions += s.retransmissions;
  c.sack_suppressed += s.sack_suppressed;
  c.window_stalls += s.window_stalls;
  c.peak_unacked = std::max(c.peak_unacked, s.peak_unacked);
  c.peak_out_of_order = std::max(c.peak_out_of_order, s.peak_out_of_order);
}

void add_network(Counters& c, const sim::Simulator& sim,
                 const net::Network& network) {
  c.sim_events = sim.stats().events_executed;
  c.net_packets = network.stats().packets_sent;
  c.net_bytes = network.stats().bytes_sent;
  c.net_dropped = network.stats().packets_dropped;
}

Counters read_counters(app::World& w) {
  Counters c;
  add_network(c, w.sim(), w.network());
  for (int i = 0; i < w.num_clients(); ++i) {
    gcs::Process& p = w.process(i);
    add_transport(c, p.transport().stats());
    c.sync_msgs += p.endpoint().vs_stats().sync_msgs_sent;
    c.forwards += p.endpoint().vs_stats().forwards_sent;
  }
  for (int s = 0; s < w.num_servers(); ++s) {
    add_transport(c, w.server(s).transport().stats());
    c.full_views += w.server(s).stats().full_views_sent;
    c.delta_views += w.server(s).stats().delta_views_sent;
  }
  return c;
}

/// Counters accumulated between two snapshots; peaks are taken as-is.
Counters delta(const Counters& after, const Counters& before) {
  Counters d = after;
  d.sim_events -= before.sim_events;
  d.net_packets -= before.net_packets;
  d.net_bytes -= before.net_bytes;
  d.net_dropped -= before.net_dropped;
  d.frames -= before.frames;
  d.entries -= before.entries;
  d.standalone_acks -= before.standalone_acks;
  d.retransmissions -= before.retransmissions;
  d.sack_suppressed -= before.sack_suppressed;
  d.window_stalls -= before.window_stalls;
  d.sync_msgs -= before.sync_msgs;
  d.forwards -= before.forwards;
  d.full_views -= before.full_views;
  d.delta_views -= before.delta_views;
  return d;
}

// ---------------------------------------------------------------------------
// Traced-run wiring.
// ---------------------------------------------------------------------------

/// Re-install each process's transport handlers with spans around the layer
/// calls. The routing is gcs::Process's, unchanged: membership first, then
/// the endpoint for client traffic, with the endpoint's pump deferred across
/// a frame by the batch hooks.
void instrument(app::World& w, Profiler& prof) {
  for (int i = 0; i < w.num_clients(); ++i) {
    gcs::Process* p = &w.process(i);
    Profiler* pr = &prof;
    p->transport().set_deliver_handler(
        [p, pr](net::NodeId from, const std::any& payload) {
          {
            Span span(pr, Layer::kMbrClient);
            if (p->membership().handle(from, payload)) return;
          }
          if (net::is_server_node(from)) return;
          Span span(pr, Layer::kGcsRecv);
          p->endpoint().on_co_rfifo_deliver(net::process_of(from), payload);
        });
    p->transport().set_batch_hooks(
        [p]() { p->endpoint().begin_delivery_batch(); },
        [p, pr]() {
          Span span(pr, Layer::kGcsPump);
          p->endpoint().end_delivery_batch();
        });
    p->transport().set_raw_handler(
        [p, pr](net::NodeId from, const std::any& payload) {
          Span span(pr, Layer::kMbrClient);
          p->membership().handle(from, payload);
        });
  }
}

/// Forwards every trace event to one checker inside a span.
class TimedSink final : public spec::TraceSink {
 public:
  TimedSink(spec::TraceSink& inner, Profiler& prof, Layer layer)
      : inner_(inner), prof_(prof), layer_(layer) {}
  void on_event(const spec::Event& event) override {
    Span span(&prof_, layer_);
    inner_.on_event(event);
  }

 private:
  spec::TraceSink& inner_;
  Profiler& prof_;
  Layer layer_;
};

/// The timed twin of AllCheckers::attach: same checkers, same order.
std::vector<std::unique_ptr<TimedSink>> attach_timed(spec::AllCheckers& c,
                                                     spec::TraceBus& bus,
                                                     Profiler& prof) {
  const std::pair<spec::TraceSink*, Layer> order[] = {
      {&c.mbrshp, Layer::kSpecMbrshp},       {&c.wv_rfifo, Layer::kSpecWvRfifo},
      {&c.vs_rfifo, Layer::kSpecVsRfifo},    {&c.trans_set, Layer::kSpecTransSet},
      {&c.self, Layer::kSpecSelf},           {&c.client, Layer::kSpecClient}};
  std::vector<std::unique_ptr<TimedSink>> sinks;
  for (const auto& [sink, layer] : order) {
    sinks.push_back(std::make_unique<TimedSink>(*sink, prof, layer));
    bus.subscribe(*sinks.back());
  }
  return sinks;
}

/// app::World::run_until_converged, with the simulation steps in spans and
/// the convergence test outside them.
bool converge(app::World& w, Profiler* prof, const std::set<ProcessId>& members,
              sim::Time within) {
  const sim::Time deadline = w.sim().now() + within;
  while (w.sim().now() < deadline) {
    {
      Span span(prof, Layer::kSimRun);
      w.run_for(10 * sim::kMillisecond);
    }
    if (w.converged(members)) return true;
  }
  return w.converged(members);
}

void fail(RepResult& r, std::uint64_t n, const std::string& why) {
  r.failed += n;
  if (r.failure.empty()) r.failure = why;
}

// ---------------------------------------------------------------------------
// steady: 8 clients x 2 servers, every client multicasts 64 bytes per 1 ms.
// ---------------------------------------------------------------------------

RepResult run_steady(std::uint64_t seed, int ticks, Profiler* prof) {
  RepResult r;
  const auto t0 = Clock::now();
  app::WorldConfig wc;
  wc.num_clients = 8;
  wc.num_servers = 2;
  wc.seed = seed;
  wc.attach_checkers = false;
  wc.record_trace = false;
  app::World w(wc);
  if (prof != nullptr) instrument(w, *prof);
  const int n = w.num_clients();
  DeliveryLog log(n, n, 1, static_cast<std::size_t>(ticks));
  for (int i = 0; i < n; ++i) {
    w.client(i).on_deliver([&, i](ProcessId from, const gcs::AppMsg& m) {
      Span span(prof, Layer::kAppDeliver);
      log.delivered(i, static_cast<int>(from.value) - 1, m.uid, w.sim().now());
    });
  }
  w.start();
  if (!converge(w, prof, w.all_members(), 10 * sim::kSecond)) {
    fail(r, 1, "steady: initial convergence failed");
    r.attempted = 1;
    return r;
  }
  r.setup_s.push_back(seconds_since(t0));
  if (prof != nullptr) prof->reset();
  r.step_ms.reserve(static_cast<std::size_t>(ticks));

  const Counters before = read_counters(w);
  const std::string payload(kPayloadBytes, 'm');
  log.start(w.sim().now());
  const std::uint64_t allocs0 = allocations();
  WindowMeter windows(50, ticks, r.window_ops_per_s);
  const auto m0 = Clock::now();
  windows.start(log.deliveries());
  for (int t = 0; t < ticks; ++t) {
    const auto s0 = Clock::now();
    for (int c = 0; c < n; ++c) {
      log.sent(c);
      Span span(prof, Layer::kGcsSend);
      w.client(c).send(payload);
    }
    {
      Span span(prof, Layer::kSimRun);
      w.run_for(kTick);
    }
    r.step_ms.push_back(seconds_since(s0) * 1e3);
    windows.tick(log.deliveries());
  }
  const sim::Time drain_deadline = w.sim().now() + 2 * sim::kSecond;
  while (!log.complete() && w.sim().now() < drain_deadline) {
    Span span(prof, Layer::kSimRun);
    w.run_for(10 * sim::kMillisecond);
  }
  r.run_s = seconds_since(m0);
  r.allocs = allocations() - allocs0;

  r.counters = delta(read_counters(w), before);
  r.counters.deliveries = log.deliveries();
  r.counters.ops = log.deliveries();
  r.attempted = log.expected();
  if (log.failed() > 0) {
    fail(r, log.failed(), "steady: a message was lost, duplicated or reordered");
  }
  r.sim_latency_ms = std::move(log.latency_ms());
  return r;
}

// ---------------------------------------------------------------------------
// churn: 16 clients x 4 servers; per cycle every client sends, one client
// crashes (even cycles) or leaves (odd cycles), the survivors reconverge,
// the client returns and all reconverge.
// ---------------------------------------------------------------------------

RepResult run_churn(std::uint64_t seed, int cycles, Profiler* prof) {
  RepResult r;
  const sim::Time kDeadline = 5 * sim::kSecond;
  const auto t0 = Clock::now();
  app::WorldConfig wc;
  wc.num_clients = 16;
  wc.num_servers = 4;
  wc.seed = seed;
  wc.attach_checkers = false;
  wc.record_trace = false;
  app::World w(wc);
  if (prof != nullptr) instrument(w, *prof);
  const int n = w.num_clients();
  std::uint64_t deliveries = 0;
  std::vector<sim::Time> view_at(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    w.client(i).on_deliver([&](ProcessId, const gcs::AppMsg&) {
      Span span(prof, Layer::kAppDeliver);
      ++deliveries;
    });
    w.client(i).on_view([&, i](const View&, const std::set<ProcessId>&) {
      Span span(prof, Layer::kAppDeliver);
      view_at[static_cast<std::size_t>(i)] = w.sim().now();
    });
  }
  const std::set<ProcessId> all = w.all_members();
  w.start();
  if (!converge(w, prof, all, 10 * sim::kSecond)) {
    fail(r, 1, "churn: initial convergence failed");
    r.attempted = 1;
    return r;
  }
  r.setup_s.push_back(seconds_since(t0));
  if (prof != nullptr) prof->reset();

  // One view change: run to convergence on `members`, timing it on the wall
  // clock and in simulated time from `since` to the last member's install.
  const auto view_change = [&](const std::set<ProcessId>& members,
                               sim::Time since) {
    ++r.attempted;
    const auto s0 = Clock::now();
    const bool ok = converge(w, prof, members, kDeadline);
    r.step_ms.push_back(seconds_since(s0) * 1e3);
    if (!ok) {
      fail(r, 1, "churn: a view change missed its reconvergence deadline");
      return false;
    }
    sim::Time last = since;
    for (ProcessId p : members) {
      last = std::max(last, view_at[p.value - 1]);
    }
    r.sim_latency_ms.push_back(static_cast<float>(ms(last - since)));
    ++r.counters.view_changes;
    return true;
  };

  const Counters before = read_counters(w);
  const std::string payload(kPayloadBytes, 'c');
  const std::uint64_t allocs0 = allocations();
  const auto m0 = Clock::now();
  for (int k = 0; k < cycles; ++k) {
    for (int c = 0; c < n; ++c) {
      Span span(prof, Layer::kGcsSend);
      w.client(c).send(payload);
    }
    const int victim = k % n;
    std::set<ProcessId> survivors = all;
    survivors.erase(ProcessId{static_cast<std::uint32_t>(victim + 1)});
    const bool crash = k % 2 == 0;
    if (crash) w.process(victim).crash();
    else w.process(victim).leave();
    if (!view_change(survivors, w.sim().now())) break;
    if (crash) w.process(victim).recover();
    else w.process(victim).start();
    if (!view_change(all, w.sim().now())) break;
  }
  r.run_s = seconds_since(m0);
  r.allocs = allocations() - allocs0;
  const std::uint64_t views = r.counters.view_changes;
  r.window_ops_per_s.push_back(static_cast<double>(views) / r.run_s);
  r.counters = delta(read_counters(w), before);
  r.counters.view_changes = views;
  r.counters.ops = views;
  r.counters.deliveries = deliveries;
  if (r.attempted < 2 * static_cast<std::uint64_t>(cycles)) {
    const std::uint64_t skipped = 2 * static_cast<std::uint64_t>(cycles) -
                                  r.attempted;
    r.attempted += skipped;
    r.failed += skipped;
  }
  return r;
}

// ---------------------------------------------------------------------------
// stress: vsgc_stress's per-seed recipe over seeds drawn from a pool.
// ---------------------------------------------------------------------------

// A seed range the recipe passes on the current code (swept in full with
// vsgc_stress), so the workload has no failing operations by construction.
// Seeds 3000..60000 hold eleven known MBRSHP start_change-cid violations;
// they are a bug to fix, not a throughput workload.
constexpr std::uint64_t kStressPoolLo = 1000000000;
constexpr std::uint64_t kStressPoolSize = 20000;

/// One vsgc_stress seed. Untraced it is run_one() exactly: World attaches
/// the exact checkers and records the trace. Traced, the same checkers are
/// attached through TimedSinks in the same order.
void stress_seed(std::uint64_t seed, Profiler* prof, RepResult& r) {
  const auto t0 = Clock::now();
  const std::uint64_t allocs0 = allocations();
  spec::AllCheckers checkers;  // traced run only; outlives the world
  std::vector<std::unique_ptr<TimedSink>> sinks;
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.num_servers = 1;
  wc.seed = seed;
  wc.attach_checkers = prof == nullptr;
  app::World w(wc);
  if (prof != nullptr) {
    sinks = attach_timed(checkers, w.trace(), *prof);
    instrument(w, *prof);
  }
  std::uint64_t deliveries = 0;
  for (int i = 0; i < w.num_clients(); ++i) {
    w.client(i).on_deliver([&](ProcessId, const gcs::AppMsg&) {
      Span span(prof, Layer::kAppDeliver);
      ++deliveries;
    });
  }
  sim::FailureInjector::Policy policy;
  policy.steps = 25;
  sim::FailureInjector injector(w.fault_target(), policy, seed);
  ++r.attempted;
  try {
    w.start();
    if (!converge(w, prof, w.all_members(), 10 * sim::kSecond)) {
      throw InvariantViolation("initial convergence failed (before faults)");
    }
    r.setup_s.push_back(seconds_since(t0));
    const sim::Time faults_from = w.sim().now();
    {
      Span span(prof, Layer::kSimRun);
      injector.run_churn();
      injector.stabilize();
    }
    if (!converge(w, prof, w.all_members(), 60 * sim::kSecond)) {
      throw InvariantViolation(
          "liveness: no reconvergence within 60s after stabilization");
    }
    r.sim_latency_ms.push_back(static_cast<float>(ms(w.sim().now() - faults_from)));
    {
      Span span(prof, Layer::kGcsSend);
      w.client(0).send("stress-probe-" + std::to_string(seed));
    }
    {
      Span span(prof, Layer::kSimRun);
      w.run_for(3 * sim::kSecond);
    }
    w.check_transport_bounded();
    {
      Span span(prof, Layer::kSpecFinalize);
      if (prof != nullptr) checkers.finalize();
      else w.finalize_checkers();
    }
    Span span(prof, Layer::kSpecLiveness);
    if (!spec::LivenessChecker::check(w.trace().recorded())) {
      throw InvariantViolation(
          "liveness: membership did not stabilize in the recorded trace");
    }
  } catch (const InvariantViolation& e) {
    fail(r, 1, "stress seed " + std::to_string(seed) + ": " + e.what());
  }
  Counters c = read_counters(w);
  c.ops = 1;
  c.deliveries = deliveries;
  std::uint64_t views = 0;
  for (int i = 0; i < w.num_clients(); ++i) {
    views += w.process(i).endpoint().stats().views_delivered;
  }
  c.view_changes = views / static_cast<std::uint64_t>(w.num_clients());
  r.counters += c;
  r.allocs += allocations() - allocs0;
  const double wall = seconds_since(t0);
  r.run_s += wall;
  r.step_ms.push_back(wall * 1e3);
}

RepResult run_stress(std::uint64_t seed, std::uint64_t index, int seeds,
                     Profiler* prof) {
  RepResult r;
  const std::uint64_t base =
      mix(seed) + index * static_cast<std::uint64_t>(seeds);
  for (int j = 0; j < seeds; ++j) {
    const std::uint64_t s =
        kStressPoolLo + (base + static_cast<std::uint64_t>(j)) % kStressPoolSize;
    stress_seed(s, prof, r);
  }
  r.window_ops_per_s.push_back(static_cast<double>(r.counters.ops) / r.run_s);
  return r;
}

// ---------------------------------------------------------------------------
// fanin: 8 raw CO_RFIFO senders -> 1 receiver, 32 x 8-byte bursts per 1 ms,
// 1% packet loss, default transport config.
// ---------------------------------------------------------------------------

struct FaninMsg {
  std::uint64_t seq = 0;  ///< 1-based per sender
};

RepResult run_fanin(std::uint64_t seed, int ticks, Profiler* prof) {
  constexpr int kSenders = 8;
  constexpr int kBurst = 32;
  constexpr std::size_t kMsgBytes = 8;
  RepResult r;
  const auto t0 = Clock::now();
  sim::Simulator sim;
  net::Network::Config nc;
  nc.drop_probability = 0.01;
  net::Network network(sim, Rng(seed), nc);
  const net::NodeId receiver{1};
  std::vector<std::unique_ptr<transport::CoRfifoTransport>> xports;
  for (int i = 0; i <= kSenders; ++i) {
    xports.push_back(std::make_unique<transport::CoRfifoTransport>(
        sim, network, net::NodeId{static_cast<std::uint32_t>(i + 1)}));
  }
  DeliveryLog log(1, kSenders, kBurst,
                  static_cast<std::size_t>(ticks) * static_cast<std::size_t>(kBurst));
  xports[0]->set_deliver_handler(
      [&](net::NodeId from, const std::any& payload) {
        Span span(prof, Layer::kAppDeliver);
        const auto* m = std::any_cast<FaninMsg>(&payload);
        log.delivered(0, static_cast<int>(from.value) - 2,
                      m != nullptr ? m->seq : 0, sim.now());
      });
  for (int s = 1; s <= kSenders; ++s) {
    xports[static_cast<std::size_t>(s)]->set_reliable({receiver});
  }
  const std::set<net::NodeId> dest{receiver};
  r.setup_s.push_back(seconds_since(t0));
  r.step_ms.reserve(static_cast<std::size_t>(ticks));

  std::vector<std::uint64_t> next_seq(kSenders, 1);
  log.start(sim.now());
  const std::uint64_t allocs0 = allocations();
  WindowMeter windows(500, ticks, r.window_ops_per_s);
  const auto m0 = Clock::now();
  windows.start(log.deliveries());
  for (int t = 0; t < ticks; ++t) {
    const auto s0 = Clock::now();
    for (int s = 0; s < kSenders; ++s) {
      for (int k = 0; k < kBurst; ++k) {
        log.sent(s);
        xports[static_cast<std::size_t>(s + 1)]->send(
            dest, FaninMsg{next_seq[static_cast<std::size_t>(s)]++}, kMsgBytes);
      }
    }
    {
      Span span(prof, Layer::kSimRun);
      sim.run_until(sim.now() + kTick);
    }
    r.step_ms.push_back(seconds_since(s0) * 1e3);
    windows.tick(log.deliveries());
  }
  const sim::Time drain_deadline = sim.now() + 5 * sim::kSecond;
  while (!log.complete() && sim.now() < drain_deadline) {
    Span span(prof, Layer::kSimRun);
    sim.run_until(sim.now() + 10 * sim::kMillisecond);
  }
  r.run_s = seconds_since(m0);
  r.allocs = allocations() - allocs0;

  Counters c;
  add_network(c, sim, network);
  for (const auto& x : xports) add_transport(c, x->stats());
  c.deliveries = log.deliveries();
  c.ops = log.deliveries();
  r.counters = c;
  r.attempted = log.expected();
  if (log.failed() > 0) {
    fail(r, log.failed(), "fanin: a message was lost, duplicated or reordered");
  }
  r.sim_latency_ms = std::move(log.latency_ms());
  return r;
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  ops += o.ops;
  deliveries += o.deliveries;
  view_changes += o.view_changes;
  sim_events += o.sim_events;
  net_packets += o.net_packets;
  net_bytes += o.net_bytes;
  net_dropped += o.net_dropped;
  frames += o.frames;
  entries += o.entries;
  standalone_acks += o.standalone_acks;
  retransmissions += o.retransmissions;
  sack_suppressed += o.sack_suppressed;
  window_stalls += o.window_stalls;
  peak_unacked = std::max(peak_unacked, o.peak_unacked);
  peak_out_of_order = std::max(peak_out_of_order, o.peak_out_of_order);
  sync_msgs += o.sync_msgs;
  forwards += o.forwards;
  full_views += o.full_views;
  delta_views += o.delta_views;
  return *this;
}

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kSteady, Workload::kChurn, Workload::kStress,
                     Workload::kFanin}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSteady: return "steady";
    case Workload::kChurn: return "churn";
    case Workload::kStress: return "stress";
    case Workload::kFanin: return "fanin";
  }
  return "?";
}

int default_rep_size(Workload w) {
  switch (w) {
    case Workload::kSteady: return 400;
    case Workload::kChurn: return 8;
    case Workload::kStress: return 32;
    case Workload::kFanin: return 4000;
  }
  return 1;
}

RepResult run_rep(Workload w, std::uint64_t seed, std::uint64_t index,
                  int size, Profiler* prof) {
  switch (w) {
    case Workload::kSteady: return run_steady(rep_seed(seed, index), size, prof);
    case Workload::kChurn: return run_churn(rep_seed(seed, index), size, prof);
    case Workload::kStress: return run_stress(seed, index, size, prof);
    case Workload::kFanin: return run_fanin(rep_seed(seed, index), size, prof);
  }
  return {};
}

}  // namespace perfbench
