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
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gcs/client.hpp"
#include "gcs/fifo_buffer.hpp"
#include "gcs/messages.hpp"
#include "gcs/view_table.hpp"
#include "membership/interface.hpp"
#include "membership/view.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"
#include "transport/channel_mux.hpp"
#include "transport/co_rfifo.hpp"
#include "util/flat_table.hpp"

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
  void on_start_change(StartChangeId cid, const ProcessSet& set) override;
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
  void corrupt_view_epoch(std::uint64_t epoch);

  // Introspection (tests, benches, forwarding strategies).
  /// Both are views of this end-point's table (gcs/view_table.hpp), as is
  /// every view the end-point holds.
  const View& current_view() const { return current_view_; }
  const View& mbrshp_view() const { return mbrshp_view_; }
  ProcessId self() const { return self_; }
  const Stats& stats() const { return stats_; }
  /// last_dlvrd[q]: 0 for a sender outside the current view.
  std::int64_t last_dlvrd(ProcessId q) const;
  /// The paper's reliable_set, ascending, and the pump caches derived from
  /// the current view (DESIGN.md §11.5).
  const std::vector<ProcessId>& reliable_set() const { return reliable_set_; }
  const std::vector<net::NodeId>& reliable_nodes() const {
    return reliable_nodes_;
  }
  const std::vector<net::NodeId>& view_dests() const { return view_dests_; }

 protected:
  // ---- Inheritance hooks (the paper's transition restrictions) ----

  /// Precondition the child adds to co_rfifo.reliable: which set to maintain,
  /// written ascending and without duplicates into `out`, which arrives
  /// empty and keeps its capacity from call to call. The pump re-evaluates
  /// it only after on_start_change, on_view, a view install or recover, so
  /// an override may read no state that changes anywhere else.
  virtual void desired_reliable_set(std::vector<ProcessId>& out) const {
    out.assign(current_view_.members().begin(), current_view_.members().end());
  }

  /// Precondition the child adds to deliver_p(q, m) for the message at
  /// `next_index` (1-based); q is lanes()[lane].sender. Parent allows
  /// everything.
  virtual bool deliver_allowed(std::size_t lane, ProcessId q,
                               std::int64_t next_index) const {
    (void)lane;
    (void)q;
    (void)next_index;
    return true;
  }

  /// Precondition + transitional-set computation the child adds to
  /// view_p(v, T): `transitional` arrives empty and is written only when the
  /// gate opens. Parent allows delivery with an empty transitional set.
  virtual bool view_gate(const View& v, ProcessSet& transitional) {
    (void)v;
    (void)transitional;
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

  /// Called wherever current_view or mbrshp_view may have moved, and on
  /// start_change: on_start_change, on_view, view install, recover and
  /// corrupt_view_epoch. A child drops the caches it derives from them.
  virtual void views_moved() {}

  /// Child input effects for MBRSHP.start_change (the parent ignores it).
  virtual void handle_start_change(StartChangeId cid, const ProcessSet& set) {
    (void)cid;
    (void)set;
  }

  /// Child state reset on recovery.
  virtual void reset_child_state() {}

  // ---- Shared machinery for children ----

  /// One sender of the current view in the delivery index: its buffer
  /// msgs[sender][current_view.id] and its cursor last_dlvrd[sender].
  struct Lane {
    ProcessId sender;
    FifoBuffer* msgs;
    std::int64_t last_dlvrd = 0;
  };

  /// One lane per current-view member, ascending by sender.
  const std::vector<Lane>& lanes() const { return lanes_; }

  /// This end-point's view equal to `v`.
  View intern(const View& v) { return views_.intern(v); }

  /// Fire all enabled locally-controlled actions until quiescent.
  void pump();

  /// msgs[q][v], or an empty buffer if this end-point holds none.
  const FifoBuffer& buffer(ProcessId q, ViewId v) const;
  /// msgs[q][v], made if absent from a dead view's buffer of q when there
  /// is one. It never moves a buffer: lanes() point into them.
  FifoBuffer& buffer_mut(ProcessId q, ViewId v);
  /// node_of(q) for every q of the ascending `procs` (a ProcessSet, a
  /// view's members, a vector), into `out`'s storage: the ascending
  /// destination list CoRfifoTransport::send takes.
  template <class Procs>
  void nodes_into(const Procs& procs, bool exclude_self,
                  std::vector<net::NodeId>& out) const {
    out.clear();
    out.reserve(procs.size());
    for (ProcessId q : procs) {
      if (!exclude_self || q != self_) out.push_back(net::node_of(q));
    }
  }
  /// The same, self excluded, into a fresh vector.
  template <class Procs>
  std::vector<net::NodeId> nodes_of(const Procs& procs) const {
    std::vector<net::NodeId> out;
    nodes_into(procs, /*exclude_self=*/true, out);
    return out;
  }
  void emit(spec::EventBody body);

  /// Gate for the events that hold a message, a view or a set
  /// (GcsSend, GcsDeliver, GcsView, MbrStartChange, MbrView): construct
  /// nothing when no recorder or sink would read them.
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
  std::int64_t last_sent_ = 0;
  std::vector<ProcessId> reliable_set_;  ///< ascending
  std::uint64_t uid_counter_ = 0;  ///< history variable: survives recovery
  bool crashed_ = false;

 private:
  /// Every view below comes from this table.
  ViewTable views_;
  // Figure 9 views; children read them through current_view() and
  // mbrshp_view().
  View current_view_;
  View mbrshp_view_;
  /// view_msg[self]: the view of our latest view_msg, seeded with v_self.
  View own_view_msg_;

  /// One held buffer msgs[q][view]. A dead one (its view garbage-collected)
  /// is empty and waits for reuse. The buffer lives on the heap, so growing
  /// the sender's list moves the pointer, never the buffer.
  struct HeldBuffer {
    ViewId view;
    bool live = false;
    std::unique_ptr<FifoBuffer> msgs;
  };
  /// The Figure 9 state of one peer q (DESIGN.md §11.5): view_msg[q],
  /// last_rcvd[q] and the buffers msgs[q][·] this end-point holds.
  struct Sender {
    View view_msg{};  ///< latest view_msg from q; the empty view before one
    std::int64_t last_rcvd = 0;
    std::vector<HeldBuffer> buffers;
  };
  /// Every sender this end-point has heard of or holds a buffer for. An
  /// entry outlives crash and recovery, reset to its initial values, so its
  /// buffers keep their capacity.
  util::FlatTable<ProcessId, Sender> senders_;

  bool try_set_reliable();
  bool try_send_view_msg();
  bool try_send_app_msgs();
  bool try_deliver_app_msgs();
  bool try_deliver_view();

  /// Rebuild the per-view caches (destinations, delivery index) for a newly
  /// current view, with every cursor at 0; mark the reliable set stale and
  /// call views_moved().
  void index_current_view();

  /// Marks a held buffer dead and empties it for reuse.
  static void release(HeldBuffer& held) {
    held.msgs->clear();
    held.live = false;
  }

  /// The index of q's lane, or lanes_.size() when q is not a member.
  std::size_t lane_index(ProcessId q) const;

  // ---- Pump caches, derived from the Figure 9 state above (DESIGN.md
  // §11.5). Rebuilt only where their inputs change, into storage they
  // keep. ----
  std::vector<net::NodeId> reliable_nodes_;  ///< node image of reliable_set_
  bool reliable_stale_ = true;  ///< desired_reliable_set() may have moved
  /// desired_reliable_set() ∪ {self}, compared with reliable_set_ before
  /// anything is rebuilt; swapped with it when they differ.
  std::vector<ProcessId> desired_;
  /// The transport's reliable_generation() when its set last matched
  /// reliable_nodes_; unset until the first check and after recover.
  std::optional<std::uint32_t> reliable_matched_at_;
  std::vector<net::NodeId> view_dests_;  ///< current_view.set − {self}
  std::vector<Lane> lanes_;  ///< one per current-view member, ascending
  std::size_t self_lane_ = 0;  ///< lanes_[self_lane_].sender == self

  bool pumping_ = false;
  bool pump_again_ = false;
  int batch_depth_ = 0;
  bool pump_deferred_ = false;
};

}  // namespace vsgc::gcs
