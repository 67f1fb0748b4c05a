// Dedicated membership server (the client-server architecture of [27]).
//
// Each client process attaches to exactly one server. Servers monitor their
// local clients and each other with a timeout failure detector and run a
// one-round proposal-exchange algorithm:
//
//   1. On any connectivity-estimate change, the server advances to a fresh
//      ROUND: it issues a new start_change (new locally-unique cid per local
//      client) to its alive local clients and multicasts a round-tagged
//      Proposal carrying its alive-client set and those cids to all servers
//      it deems alive. A server issues at most one proposal per round;
//      receiving a higher-round proposal makes it catch up to that round.
//   2. The round-r view forms when every server in the participant set P has
//      proposed for round r with participants == P. Because per-(server,
//      round) proposals are immutable, the view is a deterministic function
//      of (r, P): id = (r, min P), members = union of local_alive, startId =
//      union of proposal cids — every server that forms it delivers the
//      IDENTICAL view, including the identical startId map, which is what
//      the GCS virtual synchrony algorithm keys on. Disjoint partitions have
//      disjoint server sets, so concurrently formed views never collide.
//   3. If the estimate drifts mid-round, the server moves to a new round
//      with fresh start_changes, so a delivered view always reflects the
//      latest start_change sent to each local client (the MBRSHP spec,
//      Figure 2).
//
// The server never delivers an obsolete view: a formed view that no longer
// matches the current estimate triggers a new round instead of delivery.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "membership/failure_detector.hpp"
#include "membership/view.hpp"
#include "membership/wire.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "spec/events.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc::membership {

class MembershipServer {
 public:
  struct Config {
    /// Silence after which the failure detector suspects a client or server.
    sim::Time fd_timeout = 250 * sim::kMillisecond;
  };

  struct Stats {
    std::uint64_t rounds_started = 0;
    std::uint64_t views_formed = 0;
    std::uint64_t proposals_sent = 0;
    std::uint64_t start_changes_sent = 0;
    std::uint64_t obsolete_views_suppressed = 0;
    std::uint64_t full_views_sent = 0;   ///< O(N) ViewDelivery messages
    std::uint64_t delta_views_sent = 0;  ///< O(churn) ViewDelta messages
    /// Wire bytes saved by delta encoding vs. sending every view in full.
    std::uint64_t view_bytes_saved = 0;
  };

  MembershipServer(sim::Simulator& sim, net::Network& network, ServerId self,
                   std::set<ServerId> all_servers, Config config);
  MembershipServer(sim::Simulator& sim, net::Network& network, ServerId self,
                   std::set<ServerId> all_servers)
      : MembershipServer(sim, network, self, std::move(all_servers), Config()) {}

  /// Pre-register a client as belonging to this server (initially down until
  /// its first heartbeat, or up immediately if `initially_alive`).
  void add_client(ProcessId p, bool initially_alive = false);

  void start();

  const Stats& stats() const { return stats_; }
  transport::CoRfifoTransport& transport() { return *transport_; }
  ServerId self() const { return self_; }

  /// Current last formed epoch (exposed for tests/benches).
  std::uint64_t last_epoch() const { return last_epoch_; }

  /// Optional span instrumentation (DESIGN.md §10): when set AND the bus has
  /// lifecycle on, the server emits spec::MbrPhase markers ("suspicion",
  /// "round_start", "view_formed") keyed by its NodeId, and the server's
  /// transport emits retransmission events. Zero-cost otherwise.
  void set_trace(spec::TraceBus* trace) {
    trace_ = trace;
    transport_->set_trace(trace);
  }

 private:
  void emit_phase(const char* phase, std::uint64_t round) {
    if (trace_ != nullptr && trace_->lifecycle()) {
      trace_->emit(sim_.now(),
                   spec::MbrPhase{net::node_of(self_).value, phase, round});
    }
  }

  struct ClientRecord {
    StartChangeId last_cid{0};
    ProcessSet last_sc_set;       ///< set in the latest start_change
    bool change_started = false;  ///< MBRSHP mode[p] == change_started
    ViewId last_view_id = ViewId::zero();
    std::uint64_t incarnation = 0;  ///< client life id from its heartbeats
    /// Delta-encoding base (DESIGN.md §13): the last view sent to this
    /// client over the reliable stream. Cleared whenever in-order receipt is
    /// no longer certain (incarnation change, client dropped from a view or
    /// the failure detector's alive set) so the next view goes out full.
    std::optional<View> last_view_sent;
  };

  void on_deliver(net::NodeId from, const std::any& payload);
  void on_raw(net::NodeId from, const std::any& payload);
  void on_estimate_change();
  /// Start (or catch up to) a round: round_ = max(round_+1, min_round,
  /// last_epoch_+1), fresh cids, start_changes, and a proposal for it.
  void reconfigure(std::uint64_t min_round = 0);
  /// Do `prop`'s participants and local_alive equal alive_servers() and
  /// alive_local_clients()? Compared in place, building neither set.
  bool matches_fd(const wire::Proposal& prop) const;
  void try_form();
  void deliver_view(const View& v);
  /// The failure detector's alive local clients, and the alive servers with
  /// self, ascending, written into kept storage.
  const std::vector<ProcessId>& alive_local_clients();
  const std::vector<ServerId>& alive_servers();
  /// `local` ∪ the local_alive of every other participant's proposal: the
  /// set of this round's start_changes, built once for every local client
  /// into one body.
  ProcessSet estimate(const ProcessSet& local,
                      const wire::Proposal::Servers& participants);
  /// Reliable send to one local client.
  void send_to(ProcessId p, net::Payload payload, std::size_t size);
  void update_reliable_set();
  void heartbeat_tick();

  sim::Simulator& sim_;
  net::Network& network_;
  ServerId self_;
  std::set<ServerId> all_servers_;  ///< every server, self included
  Stats stats_;

  std::unique_ptr<transport::CoRfifoTransport> transport_;
  FailureDetector fd_;
  spec::TraceBus* trace_ = nullptr;

  std::map<ProcessId, ClientRecord> clients_;  ///< local clients
  std::map<ServerId, wire::Proposal> proposals_;  ///< highest-round per server
  std::uint64_t round_ = 0;       ///< our current agreement round
  std::uint64_t last_epoch_ = 0;  ///< epoch of the last view we formed
  std::optional<View> last_formed_;
  /// A round's gathering buffers; each keeps its capacity, so a round
  /// allocates only the bodies it builds from them (DESIGN.md §11.5).
  std::vector<ProcessId> local_;    ///< alive_local_clients()
  std::vector<ServerId> servers_;   ///< alive_servers()
  std::vector<ProcessId> est_;      ///< estimate()
  std::vector<net::NodeId> nodes_;  ///< reliable set, proposal peers
  /// try_form's (member, cid) gathering buffer.
  std::vector<std::pair<ProcessId, StartChangeId>> form_;
  /// deliver_view's delta per distinct base: local clients whose last view
  /// sent is one view share one ViewDelta payload (DESIGN.md §13.2). Emptied
  /// when the delivery is done.
  struct DeltaForm {
    View base;
    net::Payload payload;  ///< empty when the full form is no larger
    std::size_t size = 0;
  };
  std::vector<DeltaForm> deltas_;
  /// The server's heartbeat never changes, so it is wrapped once.
  net::Payload heartbeat_;
  sim::TimerHandle heartbeat_timer_;
};

}  // namespace vsgc::membership
