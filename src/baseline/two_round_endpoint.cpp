#include "baseline/two_round_endpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vsgc::baseline {

TwoRoundEndpoint::TwoRoundEndpoint(sim::Simulator& sim,
                                   transport::Channel transport,
                                   ProcessId self, spec::TraceBus* trace)
    : gcs::WvRfifoEndpoint(sim, transport, self, trace) {}

void TwoRoundEndpoint::block_ok() {
  if (crashed_) return;
  block_status_ = BlockStatus::kBlocked;
  emit(spec::GcsBlockOk{self_});
  pump();
}

void TwoRoundEndpoint::handle_start_change(StartChangeId cid,
                                           const std::set<ProcessId>& set) {
  (void)cid;
  (void)set;
  // The baseline cannot use the locally-unique cid for synchronization; the
  // notification only tells it to block the application.
  start_change_seen_ = true;
}

void TwoRoundEndpoint::on_view(const View& v) {
  if (crashed_) return;
  pending_.push_back(v);
  prune_pending();
  // pending_ feeds desired_reliable_set(); the parent's on_view marks the
  // cached reliable set stale.
  gcs::WvRfifoEndpoint::on_view(v);
}

void TwoRoundEndpoint::prune_pending() {
  // Classic behaviour the paper criticizes: once an invocation has started,
  // it runs to termination even when a newer view is already known — so
  // obsolete views reach the application. A queued view is abandoned only
  // when a later view excludes one of its participants (that participant is
  // gone; its agree/cut would never arrive and liveness would be lost).
  while (pending_.size() > 1) {
    const View& front = pending_.front();
    bool excluded_later = false;
    for (ProcessId q : participants(front)) {
      if (!pending_.back().contains(q)) {
        excluded_later = true;
        break;
      }
    }
    if (!excluded_later) break;  // run to termination
    agrees_.erase(front.id);
    syncs_.erase(front.id);
    agree_sent_.erase(front.id);
    sync_sent_.erase(front.id);
    ++baseline_stats_.views_abandoned;
    pending_.pop_front();
  }
  // Drop queued views the installed view already supersedes.
  while (!pending_.empty() && !(current_view_.id < pending_.front().id)) {
    pending_.pop_front();
  }
}

const View& TwoRoundEndpoint::next_view_candidate() const {
  return pending_.empty() ? current_view_ : pending_.front();
}

std::set<ProcessId> TwoRoundEndpoint::participants(const View& target) const {
  std::set<ProcessId> out;
  for (ProcessId q : target.members) {
    if (current_view_.contains(q)) out.insert(q);
  }
  out.insert(self_);
  return out;
}

bool TwoRoundEndpoint::agree_complete(const View& target) const {
  auto it = agrees_.find(target.id);
  if (it == agrees_.end()) return false;
  for (ProcessId q : participants(target)) {
    if (!it->second.contains(q)) return false;
  }
  return true;
}

const gcs::SyncMsgData* TwoRoundEndpoint::sync_of(ViewId target,
                                                  ProcessId q) const {
  auto it = syncs_.find(target);
  if (it == syncs_.end()) return nullptr;
  auto itq = it->second.find(q);
  return itq == it->second.end() ? nullptr : &itq->second;
}

std::set<ProcessId> TwoRoundEndpoint::transitional_for(
    const View& target) const {
  std::set<ProcessId> t;
  for (ProcessId q : target.members) {
    if (!current_view_.contains(q)) continue;
    const gcs::SyncMsgData* sm = sync_of(target.id, q);
    if (sm != nullptr && sm->view == current_view_) t.insert(q);
  }
  return t;
}

std::set<ProcessId> TwoRoundEndpoint::desired_reliable_set() const {
  std::set<ProcessId> set = current_view_.members;
  for (const View& v : pending_) {
    set.insert(v.members.begin(), v.members.end());
  }
  return set;
}

// --------------------------------------------------------------------------
// Locally controlled actions
// --------------------------------------------------------------------------

bool TwoRoundEndpoint::run_child_tasks() {
  bool progress = try_block();
  progress |= try_send_agree();
  progress |= try_send_sync();
  progress |= try_forward();
  return progress;
}

bool TwoRoundEndpoint::try_block() {
  if (block_status_ != BlockStatus::kUnblocked) return false;
  if (!start_change_seen_ && pending_.empty()) return false;
  block_status_ = BlockStatus::kRequested;
  emit(spec::GcsBlock{self_});
  if (client_ != nullptr) client_->block();
  return true;
}

bool TwoRoundEndpoint::try_send_agree() {
  // Round 1: confirm the globally unique identifier (the view id) with every
  // participant. This is the round the paper's algorithm eliminates.
  if (pending_.empty()) return false;
  const View& target = pending_.front();
  if (agree_sent_.contains(target.id)) return false;
  if (!std::includes(reliable_set_.begin(), reliable_set_.end(),
                     target.members.begin(), target.members.end())) {
    return false;
  }
  wire::AgreeMsg am{target.id};
  transport_.send(nodes_of(target.members, /*exclude_self=*/true),
                  net::Payload(am), codec::wire_size(am));
  agree_sent_.insert(target.id);
  agrees_[target.id].insert(self_);
  baseline_stats_.agrees_sent += target.members.size() - 1;  // per-dest copies
  return true;
}

bool TwoRoundEndpoint::try_send_sync() {
  // Round 2: cut exchange, only after round 1 completed and the client is
  // blocked (Self Delivery).
  if (pending_.empty()) return false;
  const View& target = pending_.front();
  if (sync_sent_.contains(target.id)) return false;
  if (!agree_complete(target)) return false;
  if (block_status_ != BlockStatus::kBlocked) return false;

  gcs::SyncMsgData data;
  data.view = current_view_;
  for (ProcessId q : current_view_.members) {
    data.cut[q] = buffer(q, current_view_.id).longest_prefix();
  }
  wire::SyncMsg sm{target.id, data.view, data.cut};
  transport_.send(nodes_of(target.members, /*exclude_self=*/true),
                  net::Payload(sm), codec::wire_size(sm));
  syncs_[target.id][self_] = data;
  sync_sent_.insert(target.id);
  baseline_stats_.sync_msgs_sent += target.members.size() - 1;  // per-dest
  return true;
}

bool TwoRoundEndpoint::handle_child_message(ProcessId from,
                                            const std::any& payload) {
  if (const auto* am = std::any_cast<wire::AgreeMsg>(&payload)) {
    agrees_[am->target].insert(from);
    return true;
  }
  if (const auto* sm = std::any_cast<wire::SyncMsg>(&payload)) {
    syncs_[sm->target][from] = gcs::SyncMsgData{sm->view, sm->cut};
    return true;
  }
  return false;
}

bool TwoRoundEndpoint::deliver_allowed(ProcessId q,
                                       std::int64_t next_index) const {
  if (pending_.empty()) return true;
  const View& target = pending_.front();
  const gcs::SyncMsgData* own = sync_of(target.id, self_);
  if (own == nullptr) return true;  // cut not committed yet

  // After committing, deliver up to the max cut over the (partially known)
  // transitional set; fall back to our own cut until peers' cuts arrive.
  std::int64_t limit = own->cut_of(q);
  for (ProcessId r : transitional_for(target)) {
    limit = std::max(limit, sync_of(target.id, r)->cut_of(q));
  }
  return next_index <= limit;
}

bool TwoRoundEndpoint::view_gate(const View& v,
                                 std::set<ProcessId>& transitional) {
  if (pending_.empty() || !(pending_.front() == v)) return false;
  for (ProcessId q : participants(v)) {
    if (sync_of(v.id, q) == nullptr) return false;
  }
  transitional = transitional_for(v);
  for (ProcessId q : current_view_.members) {
    std::int64_t agreed = 0;
    for (ProcessId r : transitional) {
      agreed = std::max(agreed, sync_of(v.id, r)->cut_of(q));
    }
    if (last_dlvrd(q) != agreed) return false;
  }
  return true;
}

bool TwoRoundEndpoint::try_forward() {
  // Min-copies style forwarding keyed on the agreed identifier: once every
  // participant's cut is known, the lowest-id holder of a missing message
  // from a non-transitional sender forwards it.
  if (pending_.empty()) return false;
  const View& target = pending_.front();
  for (ProcessId q : participants(target)) {
    if (sync_of(target.id, q) == nullptr) return false;
  }
  const std::set<ProcessId> t = transitional_for(target);
  if (!t.contains(self_)) return false;

  bool progress = false;
  for (ProcessId r : current_view_.members) {
    if (t.contains(r)) continue;
    std::int64_t max_committed = 0;
    for (ProcessId u : t) {
      max_committed =
          std::max(max_committed, sync_of(target.id, u)->cut_of(r));
    }
    for (std::int64_t i = 1; i <= max_committed; ++i) {
      std::set<ProcessId> missing;
      std::optional<ProcessId> forwarder;
      for (ProcessId u : t) {
        if (sync_of(target.id, u)->cut_of(r) < i) missing.insert(u);
        else if (!forwarder) forwarder = u;
      }
      if (missing.empty() || forwarder != self_) continue;
      const gcs::AppMsg* m = buffer(r, current_view_.id).get(i);
      if (m == nullptr) continue;
      std::set<ProcessId> fresh;
      for (ProcessId dest : missing) {
        if (forwarded_set_.emplace(dest, r, current_view_.id, i).second) {
          fresh.insert(dest);
        }
      }
      if (fresh.empty()) continue;
      gcs::wire::FwdMsg fm{r, current_view_, i, *m};
      transport_.send(nodes_of(fresh, /*exclude_self=*/true), net::Payload(fm),
                      codec::wire_size(fm));
      baseline_stats_.forwards_sent += fresh.size();
      progress = true;
    }
  }
  return progress;
}

void TwoRoundEndpoint::pre_view_effects(const View& v) {
  if (pending_.size() > 1 || mbrshp_view_.id > v.id) {
    ++baseline_stats_.obsolete_views_delivered;
  }
  VSGC_REQUIRE(!pending_.empty() && pending_.front() == v,
               "baseline installed a view it was not processing");
  pending_.pop_front();
  agrees_.erase(v.id);
  syncs_.erase(v.id);
  agree_sent_.erase(v.id);
  sync_sent_.erase(v.id);
  forwarded_set_.clear();
  start_change_seen_ = false;
  block_status_ = BlockStatus::kUnblocked;
}

void TwoRoundEndpoint::reset_child_state() {
  pending_.clear();
  agrees_.clear();
  syncs_.clear();
  agree_sent_.clear();
  sync_sent_.clear();
  forwarded_set_.clear();
  start_change_seen_ = false;
  block_status_ = BlockStatus::kUnblocked;
}

}  // namespace vsgc::baseline
