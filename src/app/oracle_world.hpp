// OracleWorld: N end-points over a simulated network, driven by the scripted
// OracleMembership instead of real membership servers. The caller plays the
// nondeterministic environment of the MBRSHP spec (paper Figure 2), which
// makes staged scenarios (partitions, missed messages, cascading views) and
// modelled membership rounds deterministic.
//
// The world is generic over the end-point it deploys: gcs::GcsEndpoint (the
// paper's algorithm, the default), baseline::TwoRoundEndpoint, or the bare
// gcs::WvRfifoEndpoint. Every run records its trace and is checked online —
// against spec::AllCheckers, or against WV_RFIFO:SPEC alone for the bare WV
// automaton, which promises nothing more — so any violation aborts it.
#pragma once

#include <any>
#include <initializer_list>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "app/blocking_client.hpp"
#include "app/snapshot.hpp"
#include "gcs/gcs_endpoint.hpp"
#include "gcs/process.hpp"
#include "membership/oracle.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "spec/all_checkers.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace vsgc::app {

template <typename EndpointT = gcs::GcsEndpoint>
class OracleWorld {
 public:
  static constexpr bool kBareWv = std::is_same_v<EndpointT, gcs::WvRfifoEndpoint>;
  using Checkers =
      std::conditional_t<kBareWv, spec::WvRfifoChecker, spec::AllCheckers>;
  using Client = BasicBlockingClient<EndpointT>;

  /// `forwarding` picks the GCS end-point's strategy; other end-points
  /// ignore it.
  explicit OracleWorld(int n, std::uint64_t seed = 1,
                       net::Network::Config net_config = {},
                       gcs::ForwardingKind forwarding =
                           gcs::ForwardingKind::kMinCopies)
      : network(sim, Rng(seed), net_config) {
    trace.set_recording(true);
    if constexpr (kBareWv) {
      trace.subscribe(checkers);
    } else {
      checkers.attach(trace);
    }
    for (int i = 0; i < n; ++i) {
      const ProcessId p = pid(i);
      transports.push_back(std::make_unique<transport::CoRfifoTransport>(
          sim, network, net::node_of(p)));
      if constexpr (std::is_same_v<EndpointT, gcs::GcsEndpoint>) {
        endpoints.push_back(std::make_unique<EndpointT>(
            sim, *transports.back(), p, gcs::make_strategy(forwarding),
            &trace));
      } else {
        endpoints.push_back(
            std::make_unique<EndpointT>(sim, *transports.back(), p, &trace));
      }
      clients.push_back(std::make_unique<Client>(*endpoints.back()));
      EndpointT* ep = endpoints.back().get();
      transports.back()->set_deliver_handler(
          [ep](net::NodeId from, const std::any& payload) {
            ep->on_co_rfifo_deliver(net::process_of(from), payload);
          });
      oracle.attach(p, *ep);
    }
  }

  ProcessId pid(int i) const {
    return ProcessId{static_cast<std::uint32_t>(i + 1)};
  }

  std::set<ProcessId> pids(std::initializer_list<int> idx) const {
    std::set<ProcessId> out;
    for (int i : idx) out.insert(pid(i));
    return out;
  }

  std::set<ProcessId> all() const {
    std::set<ProcessId> out;
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      out.insert(pid(static_cast<int>(i)));
    }
    return out;
  }

  EndpointT& ep(int i) { return *endpoints.at(static_cast<std::size_t>(i)); }
  Client& client(int i) { return *clients.at(static_cast<std::size_t>(i)); }
  transport::CoRfifoTransport& transport(int i) {
    return *transports.at(static_cast<std::size_t>(i));
  }

  void run(sim::Time d = 500 * sim::kMillisecond) {
    sim.run_until(sim.now() + d);
  }
  void run_until(sim::Time t) { sim.run_until(t); }
  void settle() { sim.run_to_quiescence(); }

  /// Standard reconfiguration: start_change + view over `members`, then run.
  View change_view(const std::set<ProcessId>& members) {
    oracle.start_change(members);
    run();
    const View v = oracle.deliver_view(members);
    run();
    return v;
  }

  /// Schedule a full reconfiguration: start_change at `at`, membership view
  /// formed one `membership_round` later (a modelled server round).
  void schedule_change(sim::Time at, sim::Time membership_round,
                       const std::set<ProcessId>& members) {
    sim.schedule_at(at, [this, members]() { oracle.start_change(members); });
    sim.schedule_at(at + membership_round,
                    [this, members]() { oracle.deliver_view(members); });
  }

  /// Fold every layer's counters into `reg` (app/snapshot.hpp): the
  /// network, each transport, and each end-point's VS stats when the
  /// end-point has them.
  void snapshot(obs::Registry& reg) const {
    snapshot_network(network, reg);
    for (const auto& t : transports) snapshot_transport(*t, reg);
    if constexpr (std::is_base_of_v<gcs::VsRfifoTsEndpoint, EndpointT>) {
      for (const auto& ep : endpoints) snapshot_endpoint(*ep, reg);
    }
  }

  sim::Simulator sim;
  /// Log lines carry simulated timestamps while this world is alive.
  ScopedSimClock log_clock{[this] { return sim.now(); }};
  spec::TraceBus trace;
  Checkers checkers;
  net::Network network;
  membership::OracleMembership oracle;
  std::vector<std::unique_ptr<transport::CoRfifoTransport>> transports;
  std::vector<std::unique_ptr<EndpointT>> endpoints;
  std::vector<std::unique_ptr<Client>> clients;
};

}  // namespace vsgc::app
