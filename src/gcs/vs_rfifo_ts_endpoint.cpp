#include "gcs/vs_rfifo_ts_endpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vsgc::gcs {

VsRfifoTsEndpoint::VsRfifoTsEndpoint(
    sim::Simulator& sim, transport::Channel transport,
    ProcessId self, std::unique_ptr<ForwardingStrategy> strategy,
    spec::TraceBus* trace)
    : WvRfifoEndpoint(sim, transport, self, trace),
      strategy_(std::move(strategy)) {
  VSGC_REQUIRE(strategy_ != nullptr, "a forwarding strategy is required");
}

const SyncMsgData* VsRfifoTsEndpoint::sync_msg(ProcessId q,
                                               StartChangeId cid) const {
  auto itq = sync_msgs_.find(q);
  if (itq == sync_msgs_.end()) return nullptr;
  auto itc = itq->second.find(cid);
  return itc == itq->second.end() ? nullptr : &itc->second;
}

const SyncMsgData* VsRfifoTsEndpoint::latest_sync_msg(ProcessId q) const {
  auto itq = sync_msgs_.find(q);
  if (itq == sync_msgs_.end() || itq->second.empty()) return nullptr;
  return &itq->second.rbegin()->second;  // cids are monotone per sender
}

std::set<ProcessId> VsRfifoTsEndpoint::compute_transitional(
    const View& v) const {
  std::set<ProcessId> t;
  for (ProcessId q : v.members) {
    if (!current_view_.contains(q)) continue;
    const SyncMsgData* sm = sync_msg(q, v.start_id_of(q));
    if (sm != nullptr && sm->view == current_view_) t.insert(q);
  }
  return t;
}

// --------------------------------------------------------------------------
// Transition restrictions (Figure 10)
// --------------------------------------------------------------------------

void VsRfifoTsEndpoint::handle_start_change(StartChangeId cid,
                                            const std::set<ProcessId>& set) {
  start_change_ = {cid, set};

  // Two-tier catch-up (Section 9 extension): sync messages may have reached
  // this leader before its own start_change notification (the rounds run in
  // parallel and notification order across processes is arbitrary). Re-relay
  // the latest known sync of every relevant process so no one deadlocks on a
  // missed relay: locals receive everything we know; other leaders and
  // orphans receive our locals' messages.
  if (routing_.mode != SyncRouting::Mode::kTwoTier ||
      routing_.leader(self_) != self_) {
    return;
  }
  wire::AggregateSyncMsg for_locals{1, {}};
  wire::AggregateSyncMsg for_peers{0, {}};
  for (const auto& [q, per_cid] : sync_msgs_) {
    if (q == self_ || per_cid.empty()) continue;
    const auto& [latest_cid, data] = *per_cid.rbegin();
    const wire::SyncMsg sync{latest_cid, data.view, data.cut};
    for_locals.entries.emplace_back(q, sync);
    if (routing_.leader(q) == self_) for_peers.entries.emplace_back(q, sync);
  }
  std::set<ProcessId> locals;
  std::set<ProcessId> peers;
  for (ProcessId q : set) {
    if (q == self_) continue;
    if (routing_.leader(q) == self_) {
      locals.insert(q);
    } else if (!set.contains(routing_.leader(q))) {
      peers.insert(q);  // orphan
    } else if (routing_.leader(q) == q) {
      peers.insert(q);  // another leader
    }
  }
  if (!for_locals.entries.empty() && !locals.empty()) {
    transport_.send(nodes_of(locals, /*exclude_self=*/true),
                    net::Payload(for_locals), codec::wire_size(for_locals));
    vs_stats_.sync_bytes_sent += codec::wire_size(for_locals);
    ++vs_stats_.aggregates_relayed;
  }
  if (!for_peers.entries.empty() && !peers.empty()) {
    transport_.send(nodes_of(peers, /*exclude_self=*/true),
                    net::Payload(for_peers), codec::wire_size(for_peers));
    vs_stats_.sync_bytes_sent += codec::wire_size(for_peers);
    ++vs_stats_.aggregates_relayed;
  }
}

std::set<ProcessId> VsRfifoTsEndpoint::desired_reliable_set() const {
  // start_change = ⊥  ⇒ set = current_view.set
  // start_change ≠ ⊥  ⇒ set = current_view.set ∪ start_change.set
  // (start_change_ moves only under on_start_change, view install and
  // recover: three of the parent's points that mark this set stale.)
  std::set<ProcessId> set = current_view_.members;
  if (start_change_) {
    set.insert(start_change_->second.begin(), start_change_->second.end());
  }
  return set;
}

std::set<ProcessId> VsRfifoTsEndpoint::relay_dests(
    const std::set<ProcessId>& change_set) const {
  std::set<ProcessId> dests;
  for (ProcessId q : change_set) {
    if (q == self_) continue;
    const ProcessId lq = routing_.leader(q);
    if (lq == self_) {
      dests.insert(q);  // our local member
    } else if (change_set.contains(lq)) {
      dests.insert(lq);  // the member's (present) leader relays to it
    } else {
      dests.insert(q);  // orphan: its leader is gone, reach it directly
    }
  }
  return dests;
}

bool VsRfifoTsEndpoint::try_send_sync_msg() {
  // co_rfifo.send_p(set, tag=sync_msg, cid, v, cut)
  if (!start_change_) return false;
  if (!sync_send_allowed()) return false;  // Figure 11: block_status = blocked
  const StartChangeId cid = start_change_->first;
  if (sync_msg(self_, cid) != nullptr) return false;  // already sent
  if (!std::includes(reliable_set_.begin(), reliable_set_.end(),
                     start_change_->second.begin(),
                     start_change_->second.end())) {
    return false;
  }

  SyncMsgData data;
  data.view = current_view_;
  for (ProcessId q : current_view_.members) {
    data.cut[q] = buffer(q, current_view_.id).longest_prefix();
  }
  const wire::SyncMsg full{cid, data.view, data.cut};
  const std::set<ProcessId>& change_set = start_change_->second;

  const ProcessId my_leader = routing_.leader(self_);
  const bool two_tier = routing_.mode == SyncRouting::Mode::kTwoTier &&
                        change_set.contains(my_leader);
  if (two_tier && my_leader != self_) {
    // Up-send to our designated leader only; it relays for us.
    transport_.send({net::node_of(my_leader)}, net::Payload(full),
                    codec::wire_size(full));
    ++vs_stats_.sync_msgs_sent;
    vs_stats_.sync_bytes_sent += codec::wire_size(full);
  } else if (two_tier) {
    // We are a leader: our own sync message starts as an aggregate.
    wire::AggregateSyncMsg agg{0, {{self_, full}}};
    const std::set<ProcessId> dests = relay_dests(change_set);
    if (!dests.empty()) {
      transport_.send(nodes_of(dests, /*exclude_self=*/true), net::Payload(agg),
                      codec::wire_size(agg));
      vs_stats_.sync_msgs_sent += dests.size();
      vs_stats_.sync_bytes_sent += codec::wire_size(agg);
    }
  } else {
    // Direct all-to-all (Section 5.2), with the optional Section 5.2.4
    // compaction: strangers (outside our view) never read our cut.
    std::set<ProcessId> members;
    std::set<ProcessId> strangers;
    for (ProcessId q : change_set) {
      if (q == self_) continue;
      (current_view_.contains(q) ? members : strangers).insert(q);
    }
    if (routing_.compact_sync_to_strangers && !strangers.empty()) {
      const wire::SyncMsg compact{cid, data.view, {}};
      transport_.send(nodes_of(members, /*exclude_self=*/true),
                      net::Payload(full), codec::wire_size(full));
      transport_.send(nodes_of(strangers, /*exclude_self=*/true),
                      net::Payload(compact), codec::wire_size(compact));
      vs_stats_.sync_bytes_sent +=
          codec::wire_size(full) * members.size() +
          codec::wire_size(compact) * strangers.size();
    } else {
      std::set<ProcessId> all = members;
      all.insert(strangers.begin(), strangers.end());
      transport_.send(nodes_of(all, /*exclude_self=*/true), net::Payload(full),
                      codec::wire_size(full));
      vs_stats_.sync_bytes_sent += codec::wire_size(full) * all.size();
    }
    vs_stats_.sync_msgs_sent += change_set.size() - 1;
  }

  sync_msgs_[self_][cid] = data;
  if (lifecycle_on()) emit(spec::SyncSent{self_, cid});
  return true;
}

void VsRfifoTsEndpoint::store_sync(ProcessId from, const wire::SyncMsg& sync) {
  sync_msgs_[from][sync.cid] = SyncMsgData{sync.view, sync.cut};
  ++vs_stats_.sync_msgs_received;
  if (lifecycle_on()) emit(spec::SyncRecv{self_, from, sync.cid});
}

void VsRfifoTsEndpoint::relay_as_leader(ProcessId origin,
                                        const wire::SyncMsg& sync) {
  if (routing_.mode != SyncRouting::Mode::kTwoTier) return;
  if (routing_.leader(self_) != self_) return;       // not a leader
  if (routing_.leader(origin) != self_) return;      // not our member
  // Relay scope: the pending change if one is in progress; otherwise the
  // latest membership view. The latter matters when this leader already
  // installed the view while slower members are still synchronizing — their
  // late up-sends must still be disseminated or those members starve.
  const std::set<ProcessId>& scope =
      start_change_ ? start_change_->second : mbrshp_view_.members;
  std::set<ProcessId> dests = relay_dests(scope);
  dests.erase(origin);
  if (dests.empty()) return;
  wire::AggregateSyncMsg agg{0, {{origin, sync}}};
  transport_.send(nodes_of(dests, /*exclude_self=*/true), net::Payload(agg),
                  codec::wire_size(agg));
  vs_stats_.sync_bytes_sent += codec::wire_size(agg);
  ++vs_stats_.aggregates_relayed;
}

bool VsRfifoTsEndpoint::handle_child_message(ProcessId from,
                                             const std::any& payload) {
  if (const auto* sm = std::any_cast<wire::SyncMsg>(&payload)) {
    store_sync(from, *sm);
    relay_as_leader(from, *sm);
    return true;
  }
  if (const auto* agg = std::any_cast<wire::AggregateSyncMsg>(&payload)) {
    for (const auto& [origin, sync] : agg->entries) {
      store_sync(origin, sync);
    }
    // A leader forwards a fresh foreign aggregate to its local members once
    // (scope falls back to the latest membership view after installation,
    // for the same reason as in relay_as_leader).
    if (agg->hops == 0 && routing_.mode == SyncRouting::Mode::kTwoTier &&
        routing_.leader(self_) == self_) {
      const std::set<ProcessId>& scope =
          start_change_ ? start_change_->second : mbrshp_view_.members;
      std::set<ProcessId> locals;
      for (ProcessId q : scope) {
        if (q != self_ && q != from && routing_.leader(q) == self_) {
          locals.insert(q);
        }
      }
      if (!locals.empty()) {
        wire::AggregateSyncMsg fwd{1, agg->entries};
        transport_.send(nodes_of(locals, /*exclude_self=*/true),
                        net::Payload(fwd), codec::wire_size(fwd));
        vs_stats_.sync_bytes_sent += codec::wire_size(fwd);
        ++vs_stats_.aggregates_relayed;
      }
    }
    return true;
  }
  return false;
}

bool VsRfifoTsEndpoint::deliver_allowed(ProcessId q,
                                        std::int64_t next_index) const {
  if (!start_change_) return true;
  const SyncMsgData* own = sync_msg(self_, start_change_->first);
  if (own == nullptr) return true;  // cut not yet committed

  const bool view_matches =
      current_view_.id < mbrshp_view_.id &&
      mbrshp_view_.contains(self_) &&
      start_change_->first == mbrshp_view_.start_id_of(self_);

  if (!view_matches) {
    // No membership view for this start_change yet: only deliver messages
    // covered by our own committed cut.
    return next_index <= own->cut_of(q);
  }

  // Membership view known: deliver up to the max cut over the (partially
  // known) transitional set S.
  std::int64_t limit = 0;
  for (ProcessId r : mbrshp_view_.members) {
    if (!current_view_.contains(r)) continue;
    const SyncMsgData* sm = sync_msg(r, mbrshp_view_.start_id_of(r));
    if (sm == nullptr || !(sm->view == current_view_)) continue;
    limit = std::max(limit, sm->cut_of(q));
  }
  return next_index <= limit;
}

bool VsRfifoTsEndpoint::view_gate(const View& v,
                                  std::set<ProcessId>& transitional) {
  // pre: v.startId(p) = start_change.id  (never deliver obsolete views)
  if (!start_change_ || v.start_id_of(self_) != start_change_->first) {
    return false;
  }
  // pre: sync messages present from all of v.set ∩ current_view.set
  for (ProcessId q : v.members) {
    if (!current_view_.contains(q)) continue;
    if (sync_msg(q, v.start_id_of(q)) == nullptr) return false;
  }
  transitional = compute_transitional(v);
  // pre: every sender's deliveries match the agreed cut (max over T).
  for (ProcessId q : current_view_.members) {
    std::int64_t agreed = 0;
    for (ProcessId r : transitional) {
      agreed = std::max(agreed,
                        sync_msg(r, v.start_id_of(r))->cut_of(q));
    }
    if (last_dlvrd(q) != agreed) return false;
  }
  return true;
}

void VsRfifoTsEndpoint::pre_view_effects(const View& v) {
  start_change_.reset();
  forwarded_set_.clear();
  // Garbage-collect sync messages that this transition consumed; keep only
  // entries with cids newer than the ones the view carries (they belong to
  // an already-announced next reconfiguration).
  for (auto& [q, per_cid] : sync_msgs_) {
    const StartChangeId used = v.start_id_of(q);
    std::erase_if(per_cid,
                  [&](const auto& e) { return !(used < e.first); });
  }
}

bool VsRfifoTsEndpoint::run_child_tasks() {
  bool progress = false;
  progress |= try_send_sync_msg();
  progress |= try_forward();
  return progress;
}

bool VsRfifoTsEndpoint::try_forward() {
  // co_rfifo.send_p(set, tag=fwd_msg, r, v, m, i), guarded by the strategy
  // predicate and the forwarded_set (never forward the same message to the
  // same destination twice).
  bool progress = false;
  for (ForwardAction& action : strategy_->select(*this)) {
    const AppMsg* m = buffer(action.orig, action.view.id).get(action.index);
    if (m == nullptr) continue;  // we do not hold the message
    std::set<ProcessId> fresh;
    for (ProcessId dest : action.dests) {
      if (dest == self_) continue;
      if (forwarded_set_.emplace(dest, action.orig, action.view.id,
                                 action.index)
              .second) {
        fresh.insert(dest);
      }
    }
    if (fresh.empty()) continue;
    wire::FwdMsg fm{action.orig, action.view, action.index, *m};
    transport_.send(nodes_of(fresh, /*exclude_self=*/true), net::Payload(fm),
                    codec::wire_size(fm));
    vs_stats_.forwards_sent += fresh.size();
    if (lifecycle_on()) {
      emit(spec::MsgForward{self_, m->sender, m->uid, fresh.size()});
    }
    progress = true;
  }
  return progress;
}

void VsRfifoTsEndpoint::reset_child_state() {
  start_change_.reset();
  sync_msgs_.clear();
  forwarded_set_.clear();
}

// --------------------------------------------------------------------------
// Forwarding strategies (Section 5.2.2)
// --------------------------------------------------------------------------

std::vector<ForwardAction> SimpleForwardingStrategy::select(
    const VsRfifoTsEndpoint& ep) {
  std::vector<ForwardAction> actions;
  const auto& sc = ep.start_change();
  if (!sc) return actions;
  const SyncMsgData* own = ep.sync_msg(ep.self(), sc->first);
  if (own == nullptr) return actions;  // nothing committed yet
  const View& v = ep.current_view();

  for (const auto& [q, per_cid] : ep.sync_msgs()) {
    if (q == ep.self() || per_cid.empty()) continue;
    const SyncMsgData& latest = per_cid.rbegin()->second;
    // Forward to q only if we know of no later view of q than v.
    if (!(latest.view == v)) continue;
    for (ProcessId r : v.members) {
      const std::int64_t have = latest.cut_of(r);
      const std::int64_t committed = own->cut_of(r);
      for (std::int64_t i = have + 1; i <= committed; ++i) {
        actions.push_back(ForwardAction{{q}, r, v, i});
      }
    }
  }
  return actions;
}

std::vector<ForwardAction> MinCopiesForwardingStrategy::select(
    const VsRfifoTsEndpoint& ep) {
  std::vector<ForwardAction> actions;
  const View& mv = ep.mbrshp_view();
  const View& cv = ep.current_view();
  if (!(cv.id < mv.id) || !mv.contains(ep.self())) return actions;
  const SyncMsgData* own = ep.sync_msg(ep.self(), mv.start_id_of(ep.self()));
  if (own == nullptr) return actions;  // own sync for this view not sent yet

  // I = v.set ∩ own sync view's set; all of I must have the right sync msgs.
  std::set<ProcessId> interest;
  for (ProcessId q : mv.members) {
    if (own->view.contains(q)) interest.insert(q);
  }
  for (ProcessId q : interest) {
    if (ep.sync_msg(q, mv.start_id_of(q)) == nullptr) return actions;
  }
  std::set<ProcessId> t;
  for (ProcessId q : interest) {
    if (ep.sync_msg(q, mv.start_id_of(q))->view == own->view) t.insert(q);
  }

  // Only messages from senders OUTSIDE T need forwarding (members of T will
  // retransmit their own messages through live CO_RFIFO channels).
  for (ProcessId r : own->view.members) {
    if (t.contains(r)) continue;
    std::int64_t max_committed = 0;
    for (ProcessId u : t) {
      max_committed = std::max(
          max_committed, ep.sync_msg(u, mv.start_id_of(u))->cut_of(r));
    }
    for (std::int64_t i = 1; i <= max_committed; ++i) {
      std::set<ProcessId> missing;
      std::optional<ProcessId> forwarder;
      for (ProcessId u : t) {
        if (ep.sync_msg(u, mv.start_id_of(u))->cut_of(r) < i) {
          missing.insert(u);
        } else if (!forwarder) {
          forwarder = u;  // min id: t iterates in ascending order
        }
      }
      if (missing.empty() || forwarder != ep.self()) continue;
      actions.push_back(ForwardAction{missing, r, own->view, i});
    }
  }
  return actions;
}

}  // namespace vsgc::gcs
