#include "gcs/wv_rfifo_endpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vsgc::gcs {

WvRfifoEndpoint::WvRfifoEndpoint(sim::Simulator& sim,
                                 transport::Channel transport,
                                 ProcessId self, spec::TraceBus* trace)
    : sim_(sim),
      transport_(transport),
      self_(self),
      trace_(trace),
      current_view_(views_.intern(View::initial(self))),
      mbrshp_view_(current_view_) {
  own_view_msg_ = current_view_;
  reliable_set_.assign(1, self);
  reliable_nodes_.assign(1, net::node_of(self));
  index_current_view();
}

void WvRfifoEndpoint::emit(spec::EventBody body) {
  if (trace_ != nullptr) trace_->emit(sim_.now(), std::move(body));
}

const FifoBuffer& WvRfifoEndpoint::buffer(ProcessId q, ViewId v) const {
  static const FifoBuffer kEmpty;
  const auto slot = senders_.find(q);
  if (slot == senders_.kNone) return kEmpty;
  for (const HeldBuffer& held : senders_.at(slot).buffers) {
    if (held.live && held.view == v) return *held.msgs;
  }
  return kEmpty;
}

FifoBuffer& WvRfifoEndpoint::buffer_mut(ProcessId q, ViewId v) {
  std::vector<HeldBuffer>& buffers = senders_[q].buffers;
  HeldBuffer* spare = nullptr;
  for (HeldBuffer& held : buffers) {
    if (held.live && held.view == v) return *held.msgs;
    if (!held.live && spare == nullptr) spare = &held;
  }
  if (spare == nullptr) {
    spare = &buffers.emplace_back();
    spare->msgs = std::make_unique<FifoBuffer>();
  }
  spare->view = v;
  spare->live = true;
  return *spare->msgs;
}

std::int64_t WvRfifoEndpoint::last_dlvrd(ProcessId q) const {
  const std::size_t i = lane_index(q);
  return i == lanes_.size() ? 0 : lanes_[i].last_dlvrd;
}

std::size_t WvRfifoEndpoint::lane_index(ProcessId q) const {
  auto it = std::lower_bound(
      lanes_.begin(), lanes_.end(), q,
      [](const Lane& lane, ProcessId p) { return lane.sender < p; });
  return it == lanes_.end() || it->sender != q
             ? lanes_.size()
             : static_cast<std::size_t>(it - lanes_.begin());
}

void WvRfifoEndpoint::index_current_view() {
  nodes_into(current_view_.members(), /*exclude_self=*/true, view_dests_);
  lanes_.clear();
  for (ProcessId q : current_view_.members()) {
    if (q == self_) self_lane_ = lanes_.size();
    lanes_.push_back(Lane{q, &buffer_mut(q, current_view_.id)});
  }
  reliable_stale_ = true;
  views_moved();
}

void WvRfifoEndpoint::corrupt_view_epoch(std::uint64_t epoch) {
  if (crashed_) return;
  View forged = current_view_;
  forged.id.epoch = epoch;
  current_view_ = views_.intern(forged);
  for (Lane& lane : lanes_) {
    lane.msgs = &buffer_mut(lane.sender, current_view_.id);
  }
  views_moved();
}

// --------------------------------------------------------------------------
// Inputs
// --------------------------------------------------------------------------

AppMsg WvRfifoEndpoint::send(std::string payload) {
  AppMsg m{self_, ++uid_counter_, std::move(payload)};
  if (crashed_) return m;
  lanes_[self_lane_].msgs->append(m);
  ++stats_.sent;
  if (trace_on()) emit(spec::GcsSend{self_, m});
  pump();
  return m;
}

void WvRfifoEndpoint::on_start_change(StartChangeId cid,
                                      const ProcessSet& set) {
  if (crashed_) return;
  if (trace_on()) emit(spec::MbrStartChange{self_, cid, set});
  // The WV_RFIFO parent ignores start_change notifications; VsRfifoTsEndpoint
  // overrides run_child_tasks()/state through handle_start_change().
  handle_start_change(cid, set);
  reliable_stale_ = true;
  views_moved();
  pump();
}

void WvRfifoEndpoint::on_view(const View& v) {
  if (crashed_) return;
  if (trace_on()) emit(spec::MbrView{self_, v});
  mbrshp_view_ = views_.intern(v);
  reliable_stale_ = true;
  views_moved();
  pump();
}

bool WvRfifoEndpoint::on_co_rfifo_deliver(ProcessId from,
                                          const std::any& payload) {
  if (crashed_) return false;

  if (const auto* vm = std::any_cast<wire::ViewMsg>(&payload)) {
    Sender& sender = senders_[from];
    sender.view_msg = views_.intern(vm->view);
    sender.last_rcvd = 0;
    pump();
    return true;
  }

  if (const auto* am = std::any_cast<wire::AppMsgWire>(&payload)) {
    // A peer with no view_msg yet is still in its initial view v_from (its
    // entry's empty view has that id, zero). A message of the current view
    // goes straight to the sender's lane.
    Sender& sender = senders_[from];
    const std::size_t lane = sender.view_msg == current_view_
                                 ? lane_index(from)
                                 : lanes_.size();
    const std::int64_t index = ++sender.last_rcvd;
    if (lane < lanes_.size()) {
      lanes_[lane].msgs->put(index, am->msg);
    } else {
      // `from` has an entry, so this grows no table.
      buffer_mut(from, sender.view_msg.id).put(index, am->msg);
    }
    if (lifecycle_on()) {
      emit(spec::MsgRecv{self_, from, am->msg.sender, am->msg.uid, false});
    }
    pump();
    return true;
  }

  if (const auto* fm = std::any_cast<wire::FwdMsg>(&payload)) {
    buffer_mut(fm->orig, fm->view.id).put(fm->index, fm->msg);
    if (lifecycle_on()) {
      emit(spec::MsgRecv{self_, from, fm->msg.sender, fm->msg.uid, true});
    }
    pump();
    return true;
  }

  if (handle_child_message(from, payload)) {
    pump();
    return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Driver loop over locally controlled actions
// --------------------------------------------------------------------------

void WvRfifoEndpoint::pump() {
  if (batch_depth_ > 0) {
    // Mid-frame: absorb the rest of the batch first; end_delivery_batch()
    // runs the deferred pump once.
    pump_deferred_ = true;
    return;
  }
  if (pumping_) {
    // Re-entrant call (a client callback sent a message mid-delivery): let
    // the outer loop pick up the new work.
    pump_again_ = true;
    return;
  }
  pumping_ = true;
  bool progress = true;
  while (progress && !crashed_) {
    progress = false;
    pump_again_ = false;
    progress |= try_set_reliable();
    progress |= try_send_view_msg();
    progress |= try_send_app_msgs();
    progress |= try_deliver_app_msgs();
    progress |= run_child_tasks();
    progress |= try_deliver_view();
    progress |= pump_again_;
  }
  pumping_ = false;
}

bool WvRfifoEndpoint::try_set_reliable() {
  // co_rfifo.reliable_p(set). Parent precondition: current_view.set ⊆ set;
  // the concrete set is chosen by the child hook (VS: ∪ start_change.set).
  // The hook's inputs change only where reliable_stale_ is set. The hook
  // writes into kept storage, so the compare allocates nothing, and the
  // caches are rebuilt only when the set moved.
  if (reliable_stale_) {
    reliable_stale_ = false;
    desired_.clear();
    desired_reliable_set(desired_);
    const auto at = std::lower_bound(desired_.begin(), desired_.end(), self_);
    if (at == desired_.end() || *at != self_) desired_.insert(at, self_);
    if (desired_ != reliable_set_) {
      VSGC_REQUIRE(std::includes(desired_.begin(), desired_.end(),
                                 current_view_.members().begin(),
                                 current_view_.members().end()),
                   "reliable set must cover the current view at "
                       << to_string(self_));
      reliable_set_.swap(desired_);
      nodes_into(reliable_set_, /*exclude_self=*/false, reliable_nodes_);
      transport_.set_reliable(reliable_nodes_);
      return true;
    }
  }
  // Compare against the transport's set as well as our mirror: a corrupted
  // transport reliable_set (sim::FaultOp::kCorruptReliable) silently stops
  // retransmission toward the dropped peer, and only this re-assertion path
  // heals it (DESIGN.md §12). Honest runs never diverge — the check compares
  // two sets, allocates nothing and never fires. It runs only when the
  // transport's set was written since it last matched.
  const std::uint32_t generation = transport_.reliable_generation();
  if (reliable_matched_at_ == generation) return false;
  if (transport_.reliable_matches(reliable_nodes_)) {
    reliable_matched_at_ = generation;
    return false;
  }
  transport_.set_reliable(reliable_nodes_);
  return true;
}

bool WvRfifoEndpoint::try_send_view_msg() {
  // co_rfifo.send_p(set, tag=view_msg, v)
  if (own_view_msg_ == current_view_) return false;
  if (!std::includes(reliable_set_.begin(), reliable_set_.end(),
                     current_view_.members().begin(),
                     current_view_.members().end())) {
    return false;
  }
  wire::ViewMsg vm{current_view_};
  const std::size_t size = codec::wire_size(vm);
  transport_.send(view_dests_, net::Payload(std::move(vm)), size);
  own_view_msg_ = current_view_;
  ++stats_.view_msgs_sent;
  return true;
}

bool WvRfifoEndpoint::try_send_app_msgs() {
  // co_rfifo.send_p(set, tag=app_msg, m)
  if (own_view_msg_ != current_view_) return false;
  bool progress = false;
  const FifoBuffer& own = *lanes_[self_lane_].msgs;
  while (const AppMsg* m = own.get(last_sent_ + 1)) {
    wire::AppMsgWire am{*m};
    const std::size_t size = codec::wire_size(am);
    transport_.send(view_dests_, net::Payload(std::move(am)), size);
    ++last_sent_;
    if (lifecycle_on()) emit(spec::MsgWireSend{self_, m->sender, m->uid});
    progress = true;
  }
  return progress;
}

bool WvRfifoEndpoint::try_deliver_app_msgs() {
  // deliver_p(q, m), over the current view's senders in ascending order.
  bool progress = false;
  bool any = true;
  while (any && !crashed_) {
    any = false;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = lanes_[i];
      const ProcessId q = lane.sender;
      const std::int64_t next = lane.last_dlvrd + 1;
      // An idle lane costs one comparison, not a buffer lookup.
      if (next > lane.msgs->last_index()) continue;
      const AppMsg* m = lane.msgs->get(next);
      if (m == nullptr) continue;
      if (q == self_ && !(lane.last_dlvrd < last_sent_)) continue;
      if (!deliver_allowed(i, q, next)) continue;
      lane.last_dlvrd = next;
      ++stats_.delivered;
      // A client that sends from inside deliver() grows its own lane, which
      // can move *m; the client gets a copy, which shares the payload.
      const AppMsg msg = *m;
      if (trace_on()) emit(spec::GcsDeliver{self_, q, msg});
      if (client_ != nullptr) client_->deliver(q, msg);
      any = true;
      progress = true;
      if (crashed_) return progress;
    }
  }
  return progress;
}

bool WvRfifoEndpoint::try_deliver_view() {
  // view_p(v, T)
  const View& candidate = next_view_candidate();
  if (!(current_view_.id < candidate.id)) return false;
  VSGC_REQUIRE(candidate.contains(self_),
               "MBRSHP violated Self Inclusion at " << to_string(self_));
  ProcessSet transitional;
  if (!view_gate(candidate, transitional)) return false;

  // Hold a copy across the effects: TwoRoundEndpoint::pre_view_effects pops
  // the pending view `candidate` refers to.
  const View v = candidate;
  // Child effects first, then parent effects (one atomic step).
  pre_view_effects(v);

  current_view_ = v;
  last_sent_ = 0;
  // Garbage collection (Section 5.1 note): buffers of other views are dead —
  // delivery only ever reads the current view's buffers from here on. A dead
  // buffer is emptied and kept for reuse.
  for (auto& entry : senders_) {
    for (HeldBuffer& held : entry.value.buffers) {
      if (held.live && held.view != v.id) release(held);
    }
  }
  index_current_view();

  ++stats_.views_delivered;
  if (trace_on()) emit(spec::GcsView{self_, v, transitional});
  if (client_ != nullptr) client_->view(v, transitional);
  return true;
}

// --------------------------------------------------------------------------
// Crash / recovery (Section 8)
// --------------------------------------------------------------------------

void WvRfifoEndpoint::crash() {
  if (crashed_) return;
  crashed_ = true;
  emit(spec::Crash{self_});
}

void WvRfifoEndpoint::recover() {
  VSGC_REQUIRE(crashed_, "recover() without crash at " << to_string(self_));
  // Reset to initial values — no stable storage. uid_counter_ survives as a
  // history variable (proof artifact only; see DESIGN.md).
  current_view_ = views_.intern(View::initial(self_));
  mbrshp_view_ = current_view_;
  own_view_msg_ = current_view_;
  for (auto& entry : senders_) {
    Sender& sender = entry.value;
    sender.view_msg = View{};
    sender.last_rcvd = 0;
    for (HeldBuffer& held : sender.buffers) {
      if (held.live) release(held);
    }
  }
  last_sent_ = 0;
  reliable_set_.assign(1, self_);
  reliable_nodes_.assign(1, net::node_of(self_));
  reliable_matched_at_.reset();
  index_current_view();
  reset_child_state();
  crashed_ = false;
  emit(spec::Recover{self_});
  pump();
}

}  // namespace vsgc::gcs
