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
      current_view_(View::initial(self)),
      mbrshp_view_(View::initial(self)) {
  view_msg_[self] = View::initial(self);
  reliable_set_ = {self};
  reliable_nodes_ = {net::node_of(self)};
  index_current_view();
}

void WvRfifoEndpoint::emit(spec::EventBody body) {
  if (trace_ != nullptr) trace_->emit(sim_.now(), std::move(body));
}

const FifoBuffer& WvRfifoEndpoint::buffer(ProcessId q, ViewId v) const {
  static const FifoBuffer kEmpty;
  auto itq = msgs_.find(q);
  if (itq == msgs_.end()) return kEmpty;
  auto itv = itq->second.find(v);
  return itv == itq->second.end() ? kEmpty : itv->second;
}

FifoBuffer& WvRfifoEndpoint::buffer_mut(ProcessId q, ViewId v) {
  return msgs_[q][v];
}

std::int64_t WvRfifoEndpoint::last_dlvrd(ProcessId q) const {
  auto it = std::lower_bound(
      lanes_.begin(), lanes_.end(), q,
      [](const Lane& lane, ProcessId p) { return lane.sender < p; });
  return it == lanes_.end() || it->sender != q ? 0 : it->last_dlvrd;
}

void WvRfifoEndpoint::index_current_view() {
  view_dests_ = nodes_of(current_view_.members, /*exclude_self=*/true);
  lanes_.clear();
  for (ProcessId q : current_view_.members) {
    lanes_.push_back(Lane{q, &buffer_mut(q, current_view_.id)});
  }
  reliable_stale_ = true;
}

std::set<net::NodeId> WvRfifoEndpoint::nodes_of(
    const std::set<ProcessId>& procs, bool exclude_self) const {
  std::set<net::NodeId> out;
  for (ProcessId q : procs) {
    if (exclude_self && q == self_) continue;
    out.insert(net::node_of(q));
  }
  return out;
}

// --------------------------------------------------------------------------
// Inputs
// --------------------------------------------------------------------------

AppMsg WvRfifoEndpoint::send(std::string payload) {
  AppMsg m{self_, ++uid_counter_, std::move(payload)};
  if (crashed_) return m;
  buffer_mut(self_, current_view_.id).append(m);
  ++stats_.sent;
  if (trace_on()) emit(spec::GcsSend{self_, m});
  pump();
  return m;
}

void WvRfifoEndpoint::on_start_change(StartChangeId cid,
                                      const std::set<ProcessId>& set) {
  if (crashed_) return;
  emit(spec::MbrStartChange{self_, cid, set});
  // The WV_RFIFO parent ignores start_change notifications; VsRfifoTsEndpoint
  // overrides run_child_tasks()/state through handle_start_change().
  handle_start_change(cid, set);
  reliable_stale_ = true;
  pump();
}

void WvRfifoEndpoint::on_view(const View& v) {
  if (crashed_) return;
  emit(spec::MbrView{self_, v});
  mbrshp_view_ = v;
  reliable_stale_ = true;
  pump();
}

bool WvRfifoEndpoint::on_co_rfifo_deliver(ProcessId from,
                                          const std::any& payload) {
  if (crashed_) return false;

  if (const auto* vm = std::any_cast<wire::ViewMsg>(&payload)) {
    view_msg_[from] = vm->view;
    last_rcvd_[from] = 0;
    pump();
    return true;
  }

  if (const auto* am = std::any_cast<wire::AppMsgWire>(&payload)) {
    // A peer with no view_msg yet is still in its initial view v_from.
    auto vm = view_msg_.find(from);
    const ViewId v = vm == view_msg_.end() ? ViewId::zero() : vm->second.id;
    const std::int64_t index = last_rcvd_[from] + 1;
    buffer_mut(from, v).put(index, am->msg);
    last_rcvd_[from] = index;
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
  // The hook's inputs change only where reliable_stale_ is set.
  if (reliable_stale_) {
    reliable_stale_ = false;
    std::set<ProcessId> desired = desired_reliable_set();
    desired.insert(self_);
    if (desired != reliable_set_) {
      VSGC_REQUIRE(std::includes(desired.begin(), desired.end(),
                                 current_view_.members.begin(),
                                 current_view_.members.end()),
                   "reliable set must cover the current view at "
                       << to_string(self_));
      reliable_set_ = std::move(desired);
      reliable_nodes_ = nodes_of(reliable_set_, /*exclude_self=*/false);
      transport_.set_reliable(reliable_nodes_);
      return true;
    }
  }
  // Compare against the transport's set as well as our mirror: a corrupted
  // transport reliable_set (sim::FaultOp::kCorruptReliable) silently stops
  // retransmission toward the dropped peer, and only this re-assertion path
  // heals it (DESIGN.md §12). Honest runs never diverge — the check compares
  // two sets, allocates nothing and never fires.
  if (transport_.reliable_matches(reliable_nodes_)) return false;
  transport_.set_reliable(reliable_nodes_);
  return true;
}

bool WvRfifoEndpoint::try_send_view_msg() {
  // co_rfifo.send_p(set, tag=view_msg, v)
  if (view_msg_.at(self_) == current_view_) return false;
  if (!std::includes(reliable_set_.begin(), reliable_set_.end(),
                     current_view_.members.begin(),
                     current_view_.members.end())) {
    return false;
  }
  wire::ViewMsg vm{current_view_};
  transport_.send(view_dests_, net::Payload(vm), codec::wire_size(vm));
  view_msg_[self_] = current_view_;
  ++stats_.view_msgs_sent;
  return true;
}

bool WvRfifoEndpoint::try_send_app_msgs() {
  // co_rfifo.send_p(set, tag=app_msg, m)
  if (view_msg_.at(self_) != current_view_) return false;
  bool progress = false;
  const FifoBuffer& own = buffer(self_, current_view_.id);
  while (const AppMsg* m = own.get(last_sent_ + 1)) {
    wire::AppMsgWire am{*m};
    transport_.send(view_dests_, net::Payload(am), codec::wire_size(am));
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
    for (Lane& lane : lanes_) {
      const ProcessId q = lane.sender;
      const std::int64_t next = lane.last_dlvrd + 1;
      const AppMsg* m = lane.msgs->get(next);
      if (m == nullptr) continue;
      if (q == self_ && !(lane.last_dlvrd < last_sent_)) continue;
      if (!deliver_allowed(q, next)) continue;
      lane.last_dlvrd = next;
      ++stats_.delivered;
      if (trace_on()) emit(spec::GcsDeliver{self_, q, *m});
      if (client_ != nullptr) client_->deliver(q, *m);
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
  std::set<ProcessId> transitional;
  if (!view_gate(candidate, transitional)) return false;

  // Copy before the effects: TwoRoundEndpoint::pre_view_effects pops the
  // pending view `candidate` refers to.
  const View v = candidate;
  // Child effects first, then parent effects (one atomic step).
  pre_view_effects(v);

  current_view_ = v;
  last_sent_ = 0;
  // Garbage collection (Section 5.1 note): buffers of other views are dead —
  // delivery only ever reads the current view's buffers from here on.
  for (auto& [q, per_view] : msgs_) {
    std::erase_if(per_view,
                  [&](const auto& entry) { return entry.first != v.id; });
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
  current_view_ = View::initial(self_);
  mbrshp_view_ = View::initial(self_);
  view_msg_.clear();
  view_msg_[self_] = View::initial(self_);
  msgs_.clear();
  last_sent_ = 0;
  last_rcvd_.clear();
  reliable_set_ = {self_};
  reliable_nodes_ = {net::node_of(self_)};
  index_current_view();
  reset_child_state();
  crashed_ = false;
  emit(spec::Recover{self_});
  pump();
}

}  // namespace vsgc::gcs
