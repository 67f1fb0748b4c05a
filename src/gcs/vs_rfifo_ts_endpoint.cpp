#include "gcs/vs_rfifo_ts_endpoint.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>

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

namespace {

/// The first sender entry not below q.
template <class Senders>
auto sender_at(Senders& senders, ProcessId q) {
  return std::lower_bound(
      senders.begin(), senders.end(), q,
      [](const SenderSyncs& s, ProcessId p) { return s.sender < p; });
}

/// The first record of `by_cid` not below cid.
template <class ByCid>
auto cid_at(ByCid& by_cid, StartChangeId cid) {
  return std::lower_bound(
      by_cid.begin(), by_cid.end(), cid,
      [](const auto& entry, StartChangeId c) { return entry.first < c; });
}

/// agreed[i] = max(agreed[i], cut[q]) for the i'th of `members`: both ascend.
void fold_cut(const wire::Cut& cut, const ProcessSet& members,
              std::vector<std::int64_t>& agreed) {
  auto c = cut.begin();
  std::size_t i = 0;
  for (ProcessId q : members) {
    while (c != cut.end() && c->first < q) ++c;
    if (c != cut.end() && c->first == q) {
      agreed[i] = std::max(agreed[i], c->second);
    }
    ++i;
  }
}

}  // namespace

const SyncMsgData* VsRfifoTsEndpoint::sync_msg(ProcessId q,
                                               StartChangeId cid) const {
  const auto s = sender_at(sync_msgs_, q);
  if (s == sync_msgs_.end() || s->sender != q) return nullptr;
  const auto c = cid_at(s->by_cid, cid);
  return c == s->by_cid.end() || c->first != cid ? nullptr : &c->second;
}

SyncMsgData& VsRfifoTsEndpoint::sync_slot(ProcessId q, StartChangeId cid,
                                          bool& fresh) {
  auto s = sender_at(sync_msgs_, q);
  // A new sender entry moves the entries after it, but not their records:
  // those sit in each entry's own `by_cid` storage.
  if (s == sync_msgs_.end() || s->sender != q) {
    s = sync_msgs_.insert(s, SenderSyncs{q, {}});
  }
  auto& by_cid = s->by_cid;
  auto c = cid_at(by_cid, cid);
  fresh = c == by_cid.end() || c->first != cid;
  if (!fresh) return c->second;
  if (c != by_cid.end() || by_cid.size() == by_cid.capacity()) {
    candidate_stale_ = true;  // the insert moves q's records
  }
  return by_cid.emplace(c, cid, SyncMsgData{})->second;
}

void VsRfifoTsEndpoint::resolve(const View& v, const View& w,
                                SyncResolution& out) const {
  out.syncs.clear();
  out.missing = 0;
  out.transitional.clear();
  out.agreed.assign(w.members().size(), 0);
  for (ProcessId r : v.members()) {
    if (!w.contains(r)) continue;
    const SyncMsgData* sm = sync_msg(r, v.start_id_of(r));
    out.syncs.emplace_back(r, sm);
    if (sm == nullptr) {
      ++out.missing;
      continue;
    }
    if (sm->view != w) continue;
    out.transitional.emplace_back(r, sm);
    fold_cut(sm->cut, w.members(), out.agreed);
  }
}

void VsRfifoTsEndpoint::refresh_candidate() const {
  if (!candidate_stale_) return;
  candidate_stale_ = false;
  resolve(mbrshp_view(), current_view(), candidate_);

  // deliver_allowed's three cases, per lane (Figure 10): no limit before our
  // own cut is committed; our own cut until the membership view for this
  // start_change is known; then the max cut over the known part of T.
  deliver_limit_.assign(lanes().size(),
                        std::numeric_limits<std::int64_t>::max());
  limit_is_agreed_ = false;
  if (!start_change_) return;
  const SyncMsgData* own = sync_msg(self_, start_change_->first);
  if (own == nullptr) return;
  const View& mv = mbrshp_view();
  limit_is_agreed_ = current_view().id < mv.id && mv.contains(self_) &&
                     start_change_->first == mv.start_id_of(self_);
  for (std::size_t i = 0; i < deliver_limit_.size(); ++i) {
    deliver_limit_[i] = limit_is_agreed_ ? candidate_.agreed[i]
                                         : own->cut_of(lanes()[i].sender);
  }
}

void VsRfifoTsEndpoint::absorb(ProcessId from, StartChangeId cid,
                               const SyncMsgData& sm) {
  if (candidate_stale_) return;
  auto& syncs = candidate_.syncs;
  auto slot = std::lower_bound(
      syncs.begin(), syncs.end(), from,
      [](const auto& entry, ProcessId p) { return entry.first < p; });
  if (slot == syncs.end() || slot->first != from ||
      mbrshp_view().start_id_of(from) != cid) {
    return;  // not a message the candidate selects
  }
  slot->second = &sm;
  --candidate_.missing;
  if (sm.view != current_view()) return;
  auto& t = candidate_.transitional;
  t.emplace(std::lower_bound(
                t.begin(), t.end(), from,
                [](const auto& entry, ProcessId p) { return entry.first < p; }),
            from, &sm);
  fold_cut(sm.cut, current_view().members(), candidate_.agreed);
  if (limit_is_agreed_) deliver_limit_ = candidate_.agreed;
}

// --------------------------------------------------------------------------
// Transition restrictions (Figure 10)
// --------------------------------------------------------------------------

void VsRfifoTsEndpoint::handle_start_change(StartChangeId cid,
                                            const ProcessSet& set) {
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
  for (const auto& [q, by_cid] : sync_msgs_) {
    if (q == self_ || by_cid.empty()) continue;
    const auto& [latest_cid, data] = by_cid.back();
    const wire::SyncMsg sync{latest_cid, data.view, data.cut};
    for_locals.entries.emplace_back(q, sync);
    if (routing_.leader(q) == self_) for_peers.entries.emplace_back(q, sync);
  }
  std::vector<ProcessId> locals;  // ascending, as `set`
  std::vector<ProcessId> peers;
  for (ProcessId q : set) {
    if (q == self_) continue;
    if (routing_.leader(q) == self_) {
      locals.push_back(q);
    } else if (!set.contains(routing_.leader(q))) {
      peers.push_back(q);  // orphan
    } else if (routing_.leader(q) == q) {
      peers.push_back(q);  // another leader
    }
  }
  if (!for_locals.entries.empty() && !locals.empty()) {
    transport_.send(nodes_of(locals), net::Payload(for_locals),
                    codec::wire_size(for_locals));
    vs_stats_.sync_bytes_sent += codec::wire_size(for_locals);
    ++vs_stats_.aggregates_relayed;
  }
  if (!for_peers.entries.empty() && !peers.empty()) {
    transport_.send(nodes_of(peers),
                    net::Payload(for_peers), codec::wire_size(for_peers));
    vs_stats_.sync_bytes_sent += codec::wire_size(for_peers);
    ++vs_stats_.aggregates_relayed;
  }
}

void VsRfifoTsEndpoint::desired_reliable_set(
    std::vector<ProcessId>& out) const {
  // start_change = ⊥  ⇒ set = current_view.set
  // start_change ≠ ⊥  ⇒ set = current_view.set ∪ start_change.set
  // (start_change_ moves only under on_start_change, view install and
  // recover: three of the parent's points that mark this set stale.)
  const ProcessSet& view = current_view().members();
  if (!start_change_) {
    out.assign(view.begin(), view.end());
    return;
  }
  const ProcessSet& change = start_change_->second;
  std::set_union(view.begin(), view.end(), change.begin(), change.end(),
                 std::back_inserter(out));
}

std::set<ProcessId> VsRfifoTsEndpoint::relay_dests(
    const ProcessSet& change_set) const {
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

  bool fresh = false;
  SyncMsgData& data = sync_slot(self_, cid, fresh);
  data.view = current_view();
  data.cut = wire::Cut::build(lanes().size(), [&](auto* out) {
    for (const Lane& lane : lanes()) {
      *out++ = {lane.sender, lane.msgs->longest_prefix()};
    }
  });
  candidate_stale_ = true;
  // The message shares our record's cut body, as will every receiver's.
  wire::SyncMsg full{cid, data.view, data.cut};
  const std::size_t full_size = codec::wire_size(full);
  const ProcessSet& change_set = start_change_->second;

  const ProcessId my_leader = routing_.leader(self_);
  const bool two_tier = routing_.mode == SyncRouting::Mode::kTwoTier &&
                        change_set.contains(my_leader);
  if (two_tier && my_leader != self_) {
    // Up-send to our designated leader only; it relays for us.
    const net::NodeId leader = net::node_of(my_leader);
    transport_.send(std::span(&leader, 1), net::Payload(std::move(full)),
                    full_size);
    ++vs_stats_.sync_msgs_sent;
    vs_stats_.sync_bytes_sent += full_size;
  } else if (two_tier) {
    // We are a leader: our own sync message starts as an aggregate.
    wire::AggregateSyncMsg agg{0, {}};
    agg.entries.emplace_back(self_, std::move(full));
    const std::set<ProcessId> dests = relay_dests(change_set);
    if (!dests.empty()) {
      const std::size_t size = codec::wire_size(agg);
      transport_.send(nodes_of(dests), net::Payload(std::move(agg)), size);
      vs_stats_.sync_msgs_sent += dests.size();
      vs_stats_.sync_bytes_sent += size;
    }
  } else if (routing_.compact_sync_to_strangers &&
             !std::includes(current_view().members().begin(),
                            current_view().members().end(),
                            change_set.begin(), change_set.end())) {
    // Direct all-to-all (Section 5.2) with the Section 5.2.4 compaction:
    // strangers (outside our view) never read our cut.
    std::vector<ProcessId> members;  // ascending, as `change_set`
    std::vector<ProcessId> strangers;
    for (ProcessId q : change_set) {
      if (q == self_) continue;
      (current_view().contains(q) ? members : strangers).push_back(q);
    }
    wire::SyncMsg compact{cid, data.view, {}};
    const std::size_t compact_size = codec::wire_size(compact);
    transport_.send(nodes_of(members), net::Payload(std::move(full)),
                    full_size);
    transport_.send(nodes_of(strangers), net::Payload(std::move(compact)),
                    compact_size);
    vs_stats_.sync_bytes_sent +=
        full_size * members.size() + compact_size * strangers.size();
    vs_stats_.sync_msgs_sent += change_set.size() - 1;
  } else {
    // Direct all-to-all (Section 5.2).
    nodes_into(change_set, /*exclude_self=*/true, sync_dests_);
    transport_.send(sync_dests_, net::Payload(std::move(full)), full_size);
    vs_stats_.sync_bytes_sent += full_size * sync_dests_.size();
    vs_stats_.sync_msgs_sent += change_set.size() - 1;
  }

  if (lifecycle_on()) emit(spec::SyncSent{self_, cid});
  return true;
}

void VsRfifoTsEndpoint::store_sync(ProcessId from, const wire::SyncMsg& sync) {
  bool fresh = false;
  SyncMsgData& data = sync_slot(from, sync.cid, fresh);
  // The record shares the sender's cut body: storing copies nothing.
  data = SyncMsgData{intern(sync.view), sync.cut};
  if (fresh && from != self_) {
    absorb(from, sync.cid, data);
  } else {
    // A replaced message, or our own (which sets deliver_allowed's cut).
    candidate_stale_ = true;
  }
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
  const ProcessSet& scope =
      start_change_ ? start_change_->second : mbrshp_view().members();
  std::set<ProcessId> dests = relay_dests(scope);
  dests.erase(origin);
  if (dests.empty()) return;
  wire::AggregateSyncMsg agg{0, {{origin, sync}}};
  transport_.send(nodes_of(dests), net::Payload(agg), codec::wire_size(agg));
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
      const ProcessSet& scope =
          start_change_ ? start_change_->second : mbrshp_view().members();
      std::vector<ProcessId> locals;  // ascending, as `scope`
      for (ProcessId q : scope) {
        if (q != self_ && q != from && routing_.leader(q) == self_) {
          locals.push_back(q);
        }
      }
      if (!locals.empty()) {
        wire::AggregateSyncMsg fwd{1, agg->entries};
        transport_.send(nodes_of(locals), net::Payload(fwd),
                        codec::wire_size(fwd));
        vs_stats_.sync_bytes_sent += codec::wire_size(fwd);
        ++vs_stats_.aggregates_relayed;
      }
    }
    return true;
  }
  return false;
}

bool VsRfifoTsEndpoint::deliver_allowed(std::size_t lane, ProcessId /*q*/,
                                        std::int64_t next_index) const {
  refresh_candidate();
  return next_index <= deliver_limit_[lane];
}

bool VsRfifoTsEndpoint::view_gate(const View& v, ProcessSet& transitional) {
  // pre: v.startId(p) = start_change.id  (never deliver obsolete views)
  if (!start_change_ || v.start_id_of(self_) != start_change_->first) {
    return false;
  }
  // v is the candidate, mbrshp_view, whose resolution is cached.
  const SyncResolution& res = candidate_resolution();
  // pre: sync messages present from all of v.set ∩ current_view.set
  if (res.missing > 0) return false;
  // pre: every sender's deliveries match the agreed cut (max over T).
  for (std::size_t i = 0; i < lanes().size(); ++i) {
    if (lanes()[i].last_dlvrd != res.agreed[i]) return false;
  }
  // T in one flat body, which the GcsView event and the client share.
  transitional = ProcessSet(ProcessSet::Ids::build(
      res.transitional.size(), [&](ProcessId* out) {
        for (const auto& [r, sm] : res.transitional) *out++ = r;
      }));
  return true;
}

void VsRfifoTsEndpoint::pre_view_effects(const View& v) {
  start_change_.reset();
  forwarded_set_.clear();
  // Garbage-collect sync messages that this transition consumed; keep only
  // entries with cids newer than the ones the view carries (they belong to
  // an already-announced next reconfiguration).
  for (auto& [q, by_cid] : sync_msgs_) {
    const StartChangeId used = v.start_id_of(q);
    std::erase_if(by_cid, [&](const auto& e) { return !(used < e.first); });
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
    std::vector<ProcessId> fresh;  // ascending, as `action.dests`
    for (ProcessId dest : action.dests) {
      if (dest == self_) continue;
      if (forwarded_set_.emplace(dest, action.orig, action.view.id,
                                 action.index)
              .second) {
        fresh.push_back(dest);
      }
    }
    if (fresh.empty()) continue;
    wire::FwdMsg fm{action.orig, action.view, action.index, *m};
    const std::size_t size = codec::wire_size(fm);
    transport_.send(nodes_of(fresh), net::Payload(std::move(fm)), size);
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

  for (const auto& [q, by_cid] : ep.sync_msgs()) {
    if (q == ep.self() || by_cid.empty()) continue;
    const SyncMsgData& latest = by_cid.back().second;
    // Forward to q only if we know of no later view of q than v.
    if (latest.view != ep.current_view()) continue;
    for (ProcessId r : v.members()) {
      const std::int64_t have = latest.cut_of(r);
      const std::int64_t committed = own->cut_of(r);
      for (std::int64_t i = have + 1; i <= committed; ++i) {
        actions.push_back(ForwardAction{{q}, r, latest.view, i});
      }
    }
  }
  return actions;
}

std::vector<ForwardAction> MinCopiesForwardingStrategy::select(
    const VsRfifoTsEndpoint& ep) {
  std::vector<ForwardAction> actions;
  const View& mv = ep.mbrshp_view();
  if (!(ep.current_view().id < mv.id) || !mv.contains(ep.self())) {
    return actions;
  }
  const SyncMsgData* own = ep.sync_msg(ep.self(), mv.start_id_of(ep.self()));
  if (own == nullptr) return actions;  // own sync for this view not sent yet

  // I = v.set ∩ own sync view's set; all of I must have the right sync msgs,
  // and T is the part of I whose sync was sent in that view. Our sync was
  // sent in the current view, whose resolution the end-point caches, unless
  // corrupt_view_epoch has since forged the current view.
  SyncResolution forged;
  const SyncResolution* res = &forged;
  if (own->view == ep.current_view()) {
    res = &ep.candidate_resolution();
  } else {
    ep.resolve(mv, own->view, forged);
  }
  if (res->missing > 0) return actions;
  const auto& t = res->transitional;

  // Only messages from senders OUTSIDE T need forwarding (members of T will
  // retransmit their own messages through live CO_RFIFO channels).
  auto in_t = t.begin();
  std::size_t i = 0;
  for (ProcessId r : own->view.members()) {
    const std::int64_t max_committed = res->agreed[i++];
    while (in_t != t.end() && in_t->first < r) ++in_t;
    if (in_t != t.end() && in_t->first == r) continue;
    for (std::int64_t idx = 1; idx <= max_committed; ++idx) {
      // The forwarder is the min id in T holding message idx: T ascends.
      const auto holder = std::find_if(t.begin(), t.end(), [&](const auto& u) {
        return u.second->cut_of(r) >= idx;
      });
      if (holder == t.end() || holder->first != ep.self()) continue;
      std::set<ProcessId> missing;
      for (const auto& [u, sm] : t) {
        if (sm->cut_of(r) < idx) missing.insert(u);
      }
      if (missing.empty()) continue;
      actions.push_back(ForwardAction{std::move(missing), r, own->view, idx});
    }
  }
  return actions;
}

}  // namespace vsgc::gcs
