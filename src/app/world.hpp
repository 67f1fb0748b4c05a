// World: one-call construction of a complete simulated deployment — network,
// membership servers, client processes with GCS end-points and blocking
// clients, spec checkers on the trace bus (paper Figure 1's architecture).
//
// Tests, benchmarks and examples build on one of two worlds: this one, with
// real membership servers, or app::OracleWorld (oracle_world.hpp), where a
// script plays the membership service.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/blocking_client.hpp"
#include "app/snapshot.hpp"
#include "gcs/process.hpp"
#include "membership/membership_server.hpp"
#include "net/network.hpp"
#include "sim/failure_injector.hpp"
#include "sim/simulator.hpp"
#include "spec/all_checkers.hpp"
#include "spec/co_rfifo_checker.hpp"
#include "spec/liveness_checker.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace vsgc::app {

struct WorldConfig {
  int num_clients = 3;
  int num_servers = 1;
  std::uint64_t seed = 1;
  net::Network::Config net;
  membership::MembershipServer::Config server;
  gcs::ForwardingKind forwarding = gcs::ForwardingKind::kMinCopies;
  gcs::SyncRouting sync_routing;  ///< direct by default
  bool attach_checkers = true;
  /// Set: the checker bundle tolerates violations inside this window after a
  /// corruption injection (spec::AllCheckers, DESIGN.md §12).
  /// Corruption-enabled harnesses (vsgc_stress --corrupt, the mc corruption
  /// menu) set it; unset, the checkers are exact.
  std::optional<sim::Time> tolerance_window;
  bool record_trace = true;
  /// Emit the fine-grained causal span events (DESIGN.md §10) so recorded
  /// traces carry per-message lifecycles and view-change phase milestones.
  bool lifecycle_spans = false;
};

class World {
 public:
  explicit World(WorldConfig config) : config_(config) {
    VSGC_REQUIRE(config.num_servers >= 1 && config.num_clients >= 0,
                 "World needs at least one server and no negative client "
                 "count (got " << config.num_servers << " servers, "
                               << config.num_clients << " clients)");
    network_ = std::make_unique<net::Network>(sim_, Rng(config.seed),
                                              config.net);
    if (config.record_trace) trace_.set_recording(true);
    if (config.lifecycle_spans) trace_.set_lifecycle(true);
    if (config.attach_checkers) checkers_.attach(trace_);

    std::set<ServerId> server_ids;
    for (int s = 0; s < config.num_servers; ++s) {
      server_ids.insert(ServerId{static_cast<std::uint32_t>(s)});
    }
    for (ServerId s : server_ids) {
      servers_.push_back(std::make_unique<membership::MembershipServer>(
          sim_, *network_, s, server_ids, config.server));
      servers_.back()->set_trace(&trace_);
    }

    for (int i = 0; i < config.num_clients; ++i) {
      const ProcessId p{static_cast<std::uint32_t>(i + 1)};
      const ServerId s{static_cast<std::uint32_t>(i % config.num_servers)};
      auto proc = std::make_unique<gcs::Process>(sim_, *network_, p, s,
                                                 &trace_, config.forwarding);
      proc->endpoint().set_sync_routing(config.sync_routing);
      // Clients become alive at their server on first heartbeat, so a
      // process that is never start()ed stays out of every view (late-join
      // tests and examples rely on this).
      servers_[s.value]->add_client(p, /*initially_alive=*/false);
      clients_.push_back(std::make_unique<BlockingClient>(proc->endpoint()));
      processes_.push_back(std::move(proc));
    }

    // Fault-injection support: the interceptor runs before any application
    // on_deliver handler, so a FailureInjector can crash a process from
    // inside its delivery callback without disturbing test wiring.
    crash_on_delivery_.assign(static_cast<std::size_t>(config.num_clients),
                              false);
    for (int i = 0; i < config.num_clients; ++i) {
      clients_[static_cast<std::size_t>(i)]->set_delivery_interceptor(
          [this, i](ProcessId, const gcs::AppMsg&) {
            if (!crash_on_delivery_[static_cast<std::size_t>(i)]) return true;
            crash_on_delivery_[static_cast<std::size_t>(i)] = false;
            processes_[static_cast<std::size_t>(i)]->crash();
            return false;  // the process is gone; swallow the delivery
          });
    }
  }

  /// Start servers and processes; run with run_for().
  void start() {
    for (auto& s : servers_) s->start();
    for (auto& p : processes_) p->start();
  }

  void run_for(sim::Time duration) { sim_.run_until(sim_.now() + duration); }

  /// True once every live process's GCS delivered the same view covering
  /// exactly the given members.
  bool converged(const std::set<ProcessId>& members) const {
    const View* seen = nullptr;
    for (const auto& p : processes_) {
      if (!members.contains(p->id())) continue;
      if (p->crashed()) return false;
      const View& cv = p->endpoint().current_view();
      if (!std::ranges::equal(cv.members(), members)) return false;
      if (seen != nullptr && !(*seen == cv)) return false;
      seen = &cv;
    }
    return seen != nullptr;
  }

  /// Run until converged(members) or the deadline; returns success.
  bool run_until_converged(const std::set<ProcessId>& members,
                           sim::Time deadline_from_now) {
    const sim::Time deadline = sim_.now() + deadline_from_now;
    while (sim_.now() < deadline) {
      run_for(10 * sim::kMillisecond);
      if (converged(members)) return true;
    }
    return converged(members);
  }

  std::set<ProcessId> all_members() const {
    std::set<ProcessId> out;
    for (const auto& p : processes_) out.insert(p->id());
    return out;
  }

  /// Assert the flow-control bounds (DESIGN.md §11) on every transport in
  /// the world: no unacked queue ever exceeded the credit window and no
  /// reorder buffer the receive window. Cheap (reads peak stats); stress and
  /// mc harnesses call it alongside the trace checkers' finalize().
  void check_transport_bounded() const {
    using transport::CoRfifoTransport;
    const auto check = [](const CoRfifoTransport& t) {
      spec::CoRfifoChecker::check_bounded(
          t.self(), t.stats().peak_unacked, CoRfifoTransport::kSendWindow,
          t.stats().peak_out_of_order, CoRfifoTransport::kRecvWindow);
    };
    for (const auto& p : processes_) check(p->transport());
    for (const auto& s : servers_) check(s->transport());
  }

  /// Fold every layer's counters into `reg` (app/snapshot.hpp): the
  /// network, each process's and server's transport, each end-point's VS
  /// stats and each membership server.
  void snapshot(obs::Registry& reg) const {
    snapshot_network(*network_, reg);
    for (const auto& p : processes_) {
      snapshot_transport(p->transport(), reg);
      snapshot_endpoint(p->endpoint(), reg);
    }
    for (const auto& s : servers_) {
      snapshot_transport(s->transport(), reg);
      snapshot_server(*s, reg);
    }
  }

  /// Arm (or disarm) "crash inside the next delivery callback" for client i.
  void arm_crash_on_delivery(int i, bool on) {
    crash_on_delivery_.at(static_cast<std::size_t>(i)) = on;
  }

  /// The callback surface sim::FailureInjector drives. Node references use
  /// the injector's encoding (process i => i, server s => -(s+1)).
  sim::FaultTarget fault_target() {
    const auto node = [this](int v) {
      return sim::encodes_server(v)
                 ? net::node_of(ServerId{
                       static_cast<std::uint32_t>(sim::decode_server(v))})
                 : net::node_of(
                       ProcessId{static_cast<std::uint32_t>(v + 1)});
    };
    sim::FaultTarget t;
    t.sim = &sim_;
    t.trace = &trace_;
    t.num_processes = num_clients();
    t.num_servers = num_servers();
    t.process_crashed = [this](int i) { return process(i).crashed(); };
    t.crash_process = [this](int i) { process(i).crash(); };
    t.recover_process = [this](int i) { process(i).recover(); };
    t.leave_process = [this](int i) { process(i).leave(); };
    t.rejoin_process = [this](int i) { process(i).start(); };
    t.set_server_up = [this](int s, bool up) {
      network_->set_node_up(
          net::node_of(ServerId{static_cast<std::uint32_t>(s)}), up);
    };
    t.partition = [this, node](const std::vector<std::vector<int>>& groups) {
      std::vector<std::set<net::NodeId>> comps;
      for (const auto& group : groups) {
        std::set<net::NodeId> comp;
        for (int v : group) comp.insert(node(v));
        comps.push_back(std::move(comp));
      }
      network_->partition(comps);
    };
    t.set_isolated = [this, node](const std::vector<int>& nodes,
                                  bool isolated) {
      std::set<net::NodeId> slice;
      for (int v : nodes) slice.insert(node(v));
      if (isolated) network_->isolate(slice);
      else network_->deisolate(slice);
    };
    t.heal = [this] { network_->heal(); };
    t.set_link = [this, node](int a, int b, bool up, bool oneway) {
      if (oneway) network_->set_oneway_link_up(node(a), node(b), up);
      else network_->set_link_up(node(a), node(b), up);
    };
    t.set_drop = [this](double p) { network_->set_drop_probability(p); };
    t.set_latency = [this](sim::Time base, sim::Time jitter) {
      network_->set_latency(base, jitter);
    };
    t.base_drop = config_.net.drop_probability;
    t.base_latency = config_.net.base_latency;
    t.base_jitter = config_.net.jitter;
    t.arm_crash_in_delivery = [this](int i, bool on) {
      arm_crash_on_delivery(i, on);
    };
    t.send_traffic = [this](int i, const std::string& payload) {
      client(i).send(payload);
    };
    t.corrupt = [this, node](const sim::FaultOp& op) {
      using K = sim::FaultOp::Kind;
      gcs::Process& proc = process(op.a);
      if (proc.crashed()) return;
      switch (op.kind) {
        case K::kCorruptSeq:
          proc.transport().corrupt_outgoing_seq(node(op.b), op.v);
          break;
        case K::kCorruptAck:
          proc.transport().corrupt_ack_cursor(node(op.b), op.v);
          break;
        case K::kCorruptReliable:
          proc.transport().corrupt_drop_reliable(node(op.b));
          break;
        case K::kCorruptView:
          proc.membership().corrupt_view_floor(op.v);
          break;
        case K::kCorruptBackoff:
          proc.transport().corrupt_backoff(
              node(op.b), static_cast<std::uint32_t>(op.v));
          break;
        case K::kBugCorruptWedge:
          proc.endpoint().corrupt_view_epoch(op.v);
          break;
        default:
          break;
      }
    };
    return t;
  }

  /// End-of-execution checks of the attached checker bundle.
  void finalize_checkers() const { checkers_.finalize(); }

  /// The stabilize-and-check epilogue of every checked run (Property 4.2):
  /// undo the injector's faults, require reconvergence within 60 s, send
  /// `probe` from client 0, run 3 s, then check the transport bounds, the
  /// checkers' finalize and liveness over the recorded trace. Throws
  /// InvariantViolation on the first failure.
  void stabilize_and_check(sim::FailureInjector& injector,
                           const std::string& probe) {
    injector.stabilize();
    if (!run_until_converged(all_members(), 60 * sim::kSecond)) {
      throw InvariantViolation(
          "liveness: no reconvergence within 60s after stabilization");
    }
    client(0).send(probe);
    run_for(3 * sim::kSecond);
    check_transport_bounded();
    finalize_checkers();
    if (!spec::LivenessChecker::check(trace_.recorded())) {
      throw InvariantViolation(
          "liveness: membership did not stabilize in the recorded trace");
    }
  }

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return *network_; }
  spec::TraceBus& trace() { return trace_; }
  spec::AllCheckers& checkers() { return checkers_; }
  membership::MembershipServer& server(int i) { return *servers_.at(i); }
  gcs::Process& process(int i) { return *processes_.at(i); }
  BlockingClient& client(int i) { return *clients_.at(i); }
  int num_clients() const { return static_cast<int>(processes_.size()); }
  int num_servers() const { return static_cast<int>(servers_.size()); }

 private:
  WorldConfig config_;
  sim::Simulator sim_;
  /// Log lines carry simulated timestamps while this world is alive.
  ScopedSimClock log_clock_{[this] { return sim_.now(); }};
  spec::TraceBus trace_;
  spec::AllCheckers checkers_{config_.tolerance_window};
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<membership::MembershipServer>> servers_;
  std::vector<std::unique_ptr<gcs::Process>> processes_;
  std::vector<std::unique_ptr<BlockingClient>> clients_;
  std::vector<bool> crash_on_delivery_;
};

}  // namespace vsgc::app
