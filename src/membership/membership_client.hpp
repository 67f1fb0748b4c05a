// Client-side membership proxy.
//
// Runs at every client process, sharing the process's CO_RFIFO transport. It
// heartbeats to the process's designated membership server (the heartbeat
// doubles as an attach request) and converts incoming StartChange /
// ViewDelivery wire messages into the Listener interface consumed by the GCS
// end-point. It enforces the client side of Local Monotonicity: views with
// non-increasing identifiers (possible transiently when re-attaching after
// recovery) are dropped rather than delivered out of order.
#pragma once

#include <any>
#include <vector>

#include "membership/interface.hpp"
#include "membership/wire.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "spec/events.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc::membership {

class MembershipClient {
 public:
  MembershipClient(sim::Simulator& sim, transport::CoRfifoTransport& transport,
                   ProcessId self, ServerId server)
      : sim_(sim), transport_(transport), self_(self), server_(server) {}

  ~MembershipClient() { heartbeat_timer_.cancel(); }

  void add_listener(Listener& listener) { listeners_.push_back(&listener); }

  /// Begin heartbeating (and thereby attach to the server).
  void start() {
    if (running_) return;
    running_ = true;
    // Fresh incarnation per life (Section 8): lets the server detect a
    // crash/recovery blip even when the failure detector missed it.
    incarnation_ = static_cast<std::uint64_t>(sim_.now()) * 2 + 1;
    heartbeat_tick();
  }

  /// Returns true if the payload was a membership wire message (consumed).
  bool handle(net::NodeId from, const std::any& payload);

  /// Graceful departure: tell the server immediately (no failure-detector
  /// timeout) and stop heartbeating. start() re-attaches later.
  void leave() {
    if (!running_) return;
    wire::Leave notice{self_};
    transport_.send_raw(net::node_of(server_), net::Payload(notice),
                        codec::wire_size(notice));
    running_ = false;
    heartbeat_timer_.cancel();
  }

  /// Section 8 crash: stop heartbeating until recover().
  void crash() {
    running_ = false;
    heartbeat_timer_.cancel();
  }

  /// Rejoin after crash(). The monotonicity floors (last_cid_,
  /// last_view_id_, last_notified_id_) survive: CO_RFIFO's stream reset
  /// resends the server's unacked notifications from the previous life
  /// under the new incarnation, and MBRSHP's Local Monotonicity spans
  /// recovery (Section 8), so a StartChange or view the client already
  /// accepted must be dropped, not accepted twice. Only the delta base is
  /// forgotten; a ViewDelta against it resyncs to a full view.
  void recover() {
    last_view_ = View{};
    start();
  }

  /// Re-attach under a fresh heartbeat incarnation without losing the
  /// monotonicity floors. The server treats the incarnation change as a
  /// crash/recovery blip and reconfigures, forcing a fresh view — the
  /// recovery lever for detected state corruption (DESIGN.md §12): a new
  /// view is the only event that re-aligns endpoint delivery indexes after
  /// a corrupted stream lost or skipped messages mid-view.
  void resync() {
    if (!running_) return;
    ++resyncs_;
    incarnation_ += 2;  // stays odd, strictly increasing, deterministic
    heartbeat_timer_.cancel();
    heartbeat_tick();
  }

  /// State-corruption hook (sim::FaultOp::kCorruptView): overwrite the Local
  /// Monotonicity floor's epoch, resurrecting an obsolete view id (epoch 0)
  /// or a future one that would suppress every legitimate delivery. The
  /// heartbeat-path audit detects the floor/notify-history divergence and
  /// repairs it (honest code only ever moves them together).
  void corrupt_view_floor(std::uint64_t epoch) {
    last_view_id_ = ViewId{epoch, last_view_id_.origin};
  }

  /// Detected-corruption repairs performed so far (tests, stress reports).
  std::uint64_t resyncs() const { return resyncs_; }

  ProcessId self() const { return self_; }
  ServerId server() const { return server_; }

  /// Optional span instrumentation (DESIGN.md §10): when set AND the bus has
  /// lifecycle on, suppressed stale notifications emit spec::MbrPhase
  /// "notify_drop" markers. Zero-cost otherwise.
  void set_trace(spec::TraceBus* trace) { trace_ = trace; }

 private:
  void emit_notify_drop(std::uint64_t round) {
    if (trace_ != nullptr && trace_->lifecycle()) {
      trace_->emit(sim_.now(),
                   spec::MbrPhase{self_.value, "notify_drop", round});
    }
  }

  /// Deliver `v` to the listeners unless a guard rejects it; `kind` names
  /// the notification in the trace log ("view" or "view(delta)").
  void accept_view(const View& v, const char* kind);

  void heartbeat_tick() {
    if (!running_) return;
    if (last_view_id_ != last_notified_id_) {
      // Self-stabilization audit (DESIGN.md §12): the guard floor and the
      // notify history are only ever advanced together, so divergence means
      // the floor was corrupted. Repair it from the (uncorruptible) history
      // and bump the incarnation so the server re-forms a view — deliveries
      // the corrupted floor suppressed are gone and only a fresh view
      // reconverges this client with the group.
      last_view_id_ = last_notified_id_;
      ++resyncs_;
      incarnation_ += 2;
    }
    // The heartbeat is wrapped once per incarnation: start(), resync() and
    // the audit above move it, and only then is a new one built.
    const auto* hb = std::any_cast<wire::Heartbeat>(&heartbeat_.any());
    if (hb == nullptr || hb->incarnation != incarnation_) {
      heartbeat_ =
          net::Payload(wire::Heartbeat{/*from_server=*/false, self_.value,
                                       incarnation_});
      hb = std::any_cast<wire::Heartbeat>(&heartbeat_.any());
    }
    transport_.send_raw(net::node_of(server_), heartbeat_,
                        codec::wire_size(*hb));
    heartbeat_timer_ = sim_.schedule(wire::kHeartbeatInterval,
                                     [this]() { heartbeat_tick(); });
  }

  sim::Simulator& sim_;
  transport::CoRfifoTransport& transport_;
  ProcessId self_;
  ServerId server_;

  std::vector<Listener*> listeners_;
  spec::TraceBus* trace_ = nullptr;
  ViewId last_view_id_ = ViewId::zero();
  /// Shadow of last_view_id_ advanced only in the notify path — the
  /// corruption hook never touches it, making floor corruption detectable
  /// as divergence between the two (heartbeat-path audit).
  ViewId last_notified_id_ = ViewId::zero();
  /// The last view notified, kept in full as the base for incoming
  /// wire::ViewDelta notifications (DESIGN.md §13). A delta whose base does
  /// not match is dropped and answered with resync(), which makes the
  /// server fall back to a full ViewDelivery.
  View last_view_{};
  StartChangeId last_cid_ = StartChangeId::zero();
  std::uint64_t resyncs_ = 0;
  std::uint64_t incarnation_ = 0;
  /// The last heartbeat sent, whose incarnation says whether it is current.
  net::Payload heartbeat_;
  bool running_ = false;
  sim::TimerHandle heartbeat_timer_;
};

}  // namespace vsgc::membership
