// WV_RFIFO end-point automaton (paper Figure 9): within-view reliable FIFO
// multicast.
//
// Guarantees (proven in the paper by refinement to WV_RFIFO:SPEC, checked at
// runtime here by spec::WvRfifoChecker):
//   * views forwarded from MBRSHP preserve Self Inclusion and Local
//     Monotonicity;
//   * every application message is delivered in the view it was sent in;
//   * per-sender delivery is gap-free FIFO within a view.
//
// The automaton's locally controlled actions run in a driver loop (pump())
// fired after every input; each action's precondition/effect follows the
// paper's code. Children (VsRfifoTsEndpoint, GcsEndpoint) extend behaviour
// through the protected virtual hooks, mirroring the paper's inheritance
// construct [26]: children may add preconditions and prepend effects but
// never write parent state.
#pragma once

#include <any>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gcs/client.hpp"
#include "gcs/fifo_buffer.hpp"
#include "gcs/messages.hpp"
#include "membership/interface.hpp"
#include "membership/view.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"
#include "transport/channel_mux.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc::gcs {

class WvRfifoEndpoint : public membership::Listener {
 public:
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t views_delivered = 0;
    std::uint64_t view_msgs_sent = 0;
  };

  WvRfifoEndpoint(sim::Simulator& sim, transport::Channel transport,
                  ProcessId self, spec::TraceBus* trace = nullptr);
  ~WvRfifoEndpoint() override = default;

  WvRfifoEndpoint(const WvRfifoEndpoint&) = delete;
  WvRfifoEndpoint& operator=(const WvRfifoEndpoint&) = delete;

  void set_client(Client& client) { client_ = &client; }

  /// Input send_p(m): multicast `payload` to the current view members.
  /// Returns the message (with its assigned uid) for the caller's records.
  AppMsg send(std::string payload);

  /// Hook up to the process's CO_RFIFO delivery stream. Returns true if the
  /// payload was a GCS wire message (consumed).
  bool on_co_rfifo_deliver(ProcessId from, const std::any& payload);

  /// Batch-aware delivery (CoRfifoTransport::set_batch_hooks): between begin
  /// and end the driver loop is deferred, so a multi-entry frame is absorbed
  /// with one pump instead of one per message. Calls nest and must balance.
  void begin_delivery_batch() { ++batch_depth_; }
  void end_delivery_batch() {
    if (batch_depth_ > 0) --batch_depth_;
    if (batch_depth_ == 0 && pump_deferred_) {
      pump_deferred_ = false;
      pump();
    }
  }

  // membership::Listener
  void on_start_change(StartChangeId cid,
                       const std::set<ProcessId>& set) override;
  void on_view(const View& v) override;

  /// Section 8 crash/recovery: crash disables everything; recover resets all
  /// state to initial values (no stable storage).
  virtual void crash();
  virtual void recover();
  bool crashed() const { return crashed_; }

  /// State-corruption hook (sim::FaultOp::kBugCorruptWedge): overwrite the
  /// installed view's epoch. A huge epoch makes try_deliver_view's
  /// monotonicity gate reject every future membership view — a deliberately
  /// *unrecoverable* wedge the eventual-safety suite must flag after its
  /// tolerance window (no recovery path exists for corrupted installed-view
  /// state; contrast the recoverable kCorrupt* family).
  void corrupt_view_epoch(std::uint64_t epoch) {
    if (crashed_) return;
    current_view_.id.epoch = epoch;
    for (Lane& lane : lanes_) {
      lane.msgs = &buffer_mut(lane.sender, current_view_.id);
    }
  }

  // Introspection (tests, benches, forwarding strategies).
  const View& current_view() const { return current_view_; }
  const View& mbrshp_view() const { return mbrshp_view_; }
  ProcessId self() const { return self_; }
  const Stats& stats() const { return stats_; }
  /// last_dlvrd[q]: 0 for a sender outside the current view.
  std::int64_t last_dlvrd(ProcessId q) const;

 protected:
  // ---- Inheritance hooks (the paper's transition restrictions) ----

  /// Precondition the child adds to co_rfifo.reliable: which set to maintain.
  /// The pump re-evaluates it only after on_start_change, on_view, a view
  /// install or recover, so an override may read no state that changes
  /// anywhere else.
  virtual std::set<ProcessId> desired_reliable_set() const {
    return current_view_.members;
  }

  /// Precondition the child adds to deliver_p(q, m) for the message at
  /// `next_index` (1-based). Parent allows everything.
  virtual bool deliver_allowed(ProcessId q, std::int64_t next_index) const {
    (void)q;
    (void)next_index;
    return true;
  }

  /// Precondition + transitional-set computation the child adds to
  /// view_p(v, T). Parent allows delivery with an empty transitional set.
  virtual bool view_gate(const View& v, std::set<ProcessId>& transitional) {
    (void)v;
    transitional.clear();
    return true;
  }

  /// Child effects on view delivery (performed before the parent's, per the
  /// inheritance construct of [26]).
  virtual void pre_view_effects(const View& v) { (void)v; }

  /// Child locally-controlled tasks (sync messages, forwarding, blocking).
  /// Returns true if any action fired (so the driver loop continues).
  virtual bool run_child_tasks() { return false; }

  /// Child wire messages (sync_msg). Returns true if consumed.
  virtual bool handle_child_message(ProcessId from, const std::any& payload) {
    (void)from;
    (void)payload;
    return false;
  }

  /// The view the end-point is currently trying to install. The paper's
  /// algorithms always target the latest membership view (and thereby never
  /// deliver obsolete views); the two-round baseline overrides this to work
  /// through its queue of pending views in order.
  virtual const View& next_view_candidate() const { return mbrshp_view_; }

  /// Child input effects for MBRSHP.start_change (the parent ignores it).
  virtual void handle_start_change(StartChangeId cid,
                                   const std::set<ProcessId>& set) {
    (void)cid;
    (void)set;
  }

  /// Child state reset on recovery.
  virtual void reset_child_state() {}

  // ---- Shared machinery for children ----

  /// Fire all enabled locally-controlled actions until quiescent.
  void pump();

  const FifoBuffer& buffer(ProcessId q, ViewId v) const;
  FifoBuffer& buffer_mut(ProcessId q, ViewId v);
  std::set<net::NodeId> nodes_of(const std::set<ProcessId>& procs,
                                 bool exclude_self) const;
  void emit(spec::EventBody body);

  /// Gate for the events that copy a payload or a view (GcsSend,
  /// GcsDeliver, GcsView): construct nothing when no recorder or sink would
  /// read them.
  bool trace_on() const { return trace_ != nullptr && trace_->active(); }

  /// Gate for the high-volume causal span events (DESIGN.md §10): emission
  /// sites construct nothing unless a collector opted in via
  /// TraceBus::set_lifecycle(true).
  bool lifecycle_on() const {
    return trace_ != nullptr && trace_->lifecycle();
  }

  sim::Simulator& sim_;
  transport::Channel transport_;
  ProcessId self_;
  spec::TraceBus* trace_;
  Client* client_ = nullptr;
  Stats stats_;

  // ---- Figure 9 state (owned by the parent; children only read) ----
  View current_view_;
  View mbrshp_view_;
  /// Latest view_msg from q; view_msg[self] is seeded with v_self.
  std::map<ProcessId, View> view_msg_;
  std::map<ProcessId, std::map<ViewId, FifoBuffer>> msgs_;
  std::int64_t last_sent_ = 0;
  std::map<ProcessId, std::int64_t> last_rcvd_;
  std::set<ProcessId> reliable_set_;
  std::uint64_t uid_counter_ = 0;  ///< history variable: survives recovery
  bool crashed_ = false;

 private:
  /// One sender of the current view in the delivery index: its buffer
  /// msgs[sender][current_view.id] and its cursor last_dlvrd[sender].
  struct Lane {
    ProcessId sender;
    FifoBuffer* msgs;
    std::int64_t last_dlvrd = 0;
  };

  bool try_set_reliable();
  bool try_send_view_msg();
  bool try_send_app_msgs();
  bool try_deliver_app_msgs();
  bool try_deliver_view();

  /// Rebuild the per-view caches (destinations, delivery index) for a newly
  /// current view, with every cursor at 0, and mark the reliable set stale.
  void index_current_view();

  // ---- Pump caches, derived from the Figure 9 state above (DESIGN.md
  // §11.5). Rebuilt only where their inputs change. ----
  std::set<net::NodeId> reliable_nodes_;  ///< node image of reliable_set_
  bool reliable_stale_ = true;  ///< desired_reliable_set() may have moved
  std::set<net::NodeId> view_dests_;  ///< current_view.set − {self}
  std::vector<Lane> lanes_;  ///< one per current-view member, ascending

  bool pumping_ = false;
  bool pump_again_ = false;
  int batch_depth_ = 0;
  bool pump_deferred_ = false;
};

}  // namespace vsgc::gcs
