#include "membership/membership_server.hpp"

#include <algorithm>
#include <ranges>
#include <span>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vsgc::membership {

MembershipServer::MembershipServer(sim::Simulator& sim, net::Network& network,
                                   ServerId self, std::set<ServerId> all_servers,
                                   Config config)
    : sim_(sim),
      network_(network),
      self_(self),
      all_servers_(std::move(all_servers)),
      fd_(sim, config.fd_timeout, [this]() { on_estimate_change(); }),
      heartbeat_(wire::Heartbeat{/*from_server=*/true, self.value}) {
  all_servers_.insert(self_);
  transport_ = std::make_unique<transport::CoRfifoTransport>(
      sim_, network_, net::node_of(self_));
  transport_->set_deliver_handler(
      [this](net::NodeId from, const std::any& payload) {
        on_deliver(from, payload);
      });
  transport_->set_raw_handler(
      [this](net::NodeId from, const std::any& payload) {
        on_raw(from, payload);
      });
  for (ServerId s : all_servers_) {
    if (s != self_) fd_.monitor(net::node_of(s), /*initially_alive=*/true);
  }
}

void MembershipServer::add_client(ProcessId p, bool initially_alive) {
  clients_.try_emplace(p);
  fd_.monitor(net::node_of(p), initially_alive);
}

void MembershipServer::start() {
  fd_.start();
  heartbeat_tick();
  // Kick off the initial round once the world is wired up.
  sim_.schedule(1, [this]() {
    reconfigure();
    try_form();
  });
}

void MembershipServer::heartbeat_tick() {
  const std::size_t size =
      codec::wire_size(*std::any_cast<wire::Heartbeat>(&heartbeat_.any()));
  for (ServerId s : all_servers_) {
    if (s != self_) transport_->send_raw(net::node_of(s), heartbeat_, size);
  }
  heartbeat_timer_ = sim_.schedule(wire::kHeartbeatInterval,
                                   [this]() { heartbeat_tick(); });
}

const std::vector<ProcessId>& MembershipServer::alive_local_clients() {
  local_.clear();
  for (const auto& [p, rec] : clients_) {
    if (fd_.alive(net::node_of(p))) local_.push_back(p);
  }
  return local_;
}

const std::vector<ServerId>& MembershipServer::alive_servers() {
  servers_.clear();
  for (ServerId s : all_servers_) {
    if (s == self_ || fd_.alive(net::node_of(s))) servers_.push_back(s);
  }
  return servers_;
}

ProcessSet MembershipServer::estimate(
    const ProcessSet& local, const wire::Proposal::Servers& participants) {
  est_.assign(local.begin(), local.end());
  for (ServerId s : participants) {
    if (s == self_) continue;
    auto it = proposals_.find(s);
    if (it == proposals_.end()) continue;
    est_.insert(est_.end(), it->second.local_alive.begin(),
                it->second.local_alive.end());
  }
  std::sort(est_.begin(), est_.end());
  est_.erase(std::unique(est_.begin(), est_.end()), est_.end());
  return ProcessSet(ProcessSet::Ids(est_.begin(), est_.end()));
}

void MembershipServer::update_reliable_set() {
  // Client nodes sort below every server node (net::kServerBase), so the
  // two ascending lists concatenate into one ascending set.
  nodes_.clear();
  for (ProcessId p : alive_local_clients()) nodes_.push_back(net::node_of(p));
  for (ServerId s : alive_servers()) nodes_.push_back(net::node_of(s));
  transport_->set_reliable(std::span<const net::NodeId>(nodes_));
}

void MembershipServer::send_to(ProcessId p, net::Payload payload,
                               std::size_t size) {
  const net::NodeId to = net::node_of(p);
  transport_->send(std::span<const net::NodeId>(&to, 1), std::move(payload),
                   size);
}

void MembershipServer::on_estimate_change() {
  // Span milestone: the failure detector's connectivity estimate moved —
  // this is what kicks off the round that reconfigure() opens next.
  emit_phase("suspicion", round_ + 1);
  update_reliable_set();
  reconfigure();
  try_form();
}

void MembershipServer::reconfigure(std::uint64_t min_round) {
  ++stats_.rounds_started;
  round_ = std::max({round_ + 1, min_round, last_epoch_ + 1});
  emit_phase("round_start", round_);

  // The (immutable) proposal for this round: the failure detector's output,
  // read once, and fresh cids for local clients, each in one flat body. A
  // set equal to the one the last proposal sent keeps that body.
  const std::vector<ProcessId>& local = alive_local_clients();
  const std::vector<ServerId>& servers = alive_servers();
  wire::Proposal& prop = proposals_[self_];
  prop.from = self_;
  prop.round = round_;
  if (!std::ranges::equal(prop.local_alive, local)) {
    prop.local_alive = ProcessSet(ProcessSet::Ids(local.begin(), local.end()));
  }
  if (!std::ranges::equal(prop.participants, servers)) {
    prop.participants = wire::Proposal::Servers(servers.begin(), servers.end());
  }
  prop.cids = wire::Proposal::Cids::build(local.size(), [&](auto* out) {
    for (ProcessId p : local) {
      auto& rec = clients_.at(p);
      rec.last_cid = StartChangeId{rec.last_cid.value + 1};
      *out++ = {p, rec.last_cid};
    }
  });

  // start_change to every alive local client, with the current estimate:
  // one set, whose body every client's StartChange and record share.
  const ProcessSet est = estimate(prop.local_alive, prop.participants);
  for (ProcessId p : prop.local_alive) {
    auto& rec = clients_.at(p);
    rec.last_sc_set = est;
    rec.change_started = true;
    wire::StartChange sc{rec.last_cid, est};
    ++stats_.start_changes_sent;
    const std::size_t size = codec::wire_size(sc);
    send_to(p, net::Payload(std::move(sc)), size);
  }

  // Proposal to all other participant servers; the payload shares the
  // proposal's bodies.
  nodes_.clear();
  for (ServerId s : prop.participants) {
    if (s != self_) nodes_.push_back(net::node_of(s));
  }
  if (!nodes_.empty()) {
    ++stats_.proposals_sent;
    transport_->send(std::span<const net::NodeId>(nodes_), net::Payload(prop),
                     codec::wire_size(prop));
  }
}

void MembershipServer::on_raw(net::NodeId from, const std::any& payload) {
  if (const auto* leave = std::any_cast<wire::Leave>(&payload)) {
    if (!net::is_server_node(from) && clients_.contains(leave->who) &&
        net::process_of(from) == leave->who) {
      fd_.suspect(from);  // triggers on_estimate_change via the FD callback
    }
    return;
  }
  const auto* hb = std::any_cast<wire::Heartbeat>(&payload);
  if (hb == nullptr) return;
  if (!hb->from_server && !net::is_server_node(from)) {
    const ProcessId p = net::process_of(from);
    if (!clients_.contains(p)) add_client(p, /*initially_alive=*/false);
    auto& rec = clients_.at(p);
    if (rec.incarnation != hb->incarnation) {
      const bool restarted = rec.incarnation != 0;
      rec.incarnation = hb->incarnation;
      if (restarted) {
        // The client crashed and recovered without the failure detector
        // noticing (Section 8 blip). Its end-point state is gone; run a
        // fresh round so it receives a new, monotonically larger view —
        // sent in full: a delta base from its previous life is useless.
        rec.last_view_sent.reset();
        fd_.heard(from);
        reconfigure();
        try_form();
        return;
      }
    }
  }
  fd_.heard(from);
}

void MembershipServer::on_deliver(net::NodeId from, const std::any& payload) {
  fd_.heard(from);
  if (const auto* prop = std::any_cast<wire::Proposal>(&payload)) {
    // A view takes each member's cid from its server's proposal, so one
    // whose cids do not name exactly its local_alive is dropped like a stale
    // round.
    if (!std::ranges::equal(prop->local_alive, prop->cids | std::views::keys)) {
      return;
    }
    auto it = proposals_.find(prop->from);
    if (it != proposals_.end() && prop->round <= it->second.round) {
      return;  // stale round
    }
    const bool membership_changed =
        it == proposals_.end() || it->second.local_alive != prop->local_alive;
    proposals_[prop->from] = *prop;
    if (prop->round > round_) {
      // A peer is ahead: catch up by proposing for its round (fresh
      // start_changes included, so the MBRSHP contract stays intact).
      reconfigure(prop->round);
    } else if (membership_changed) {
      // The global estimate moved: new round so local clients get a
      // start_change covering the new estimate before any view delivery.
      reconfigure();
    }
    try_form();
  }
}

bool MembershipServer::matches_fd(const wire::Proposal& prop) const {
  // Both sides are sorted, so each comparison is one walk in step.
  auto s = prop.participants.begin();
  for (ServerId want : all_servers_) {
    if (want != self_ && !fd_.alive(net::node_of(want))) continue;
    if (s == prop.participants.end() || *s != want) return false;
    ++s;
  }
  if (s != prop.participants.end()) return false;
  auto p = prop.local_alive.begin();
  for (const auto& [want, rec] : clients_) {
    if (!fd_.alive(net::node_of(want))) continue;
    if (p == prop.local_alive.end() || *p != want) return false;
    ++p;
  }
  return p == prop.local_alive.end();
}

void MembershipServer::try_form() {
  // Our own round-`round_` proposal must reflect the current FD output and
  // local clients; otherwise this round can never legally complete.
  const auto own = proposals_.find(self_);
  if (own == proposals_.end() || own->second.round != round_ ||
      !matches_fd(own->second)) {
    reconfigure();
  }
  // Now (or after reconfigure()) the own proposal's participants are exactly
  // alive_servers().
  const wire::Proposal::Servers& participants =
      proposals_.at(self_).participants;

  // Round completion: every participant proposed for round_ with the same
  // participant set.
  for (ServerId s : participants) {
    auto it = proposals_.find(s);
    if (it == proposals_.end() || it->second.round != round_ ||
        it->second.participants != participants) {
      return;  // round incomplete; wait for more proposals
    }
  }
  if (last_epoch_ >= round_) return;  // this round's view already formed

  // Deterministic view from the (unique) round-`round_` proposal set,
  // gathered in kept storage and built into its flat body: a process two
  // proposals list takes the later participant's cid.
  form_.clear();
  for (ServerId s : participants) {
    const wire::Proposal::Cids& cids = proposals_.at(s).cids;
    form_.insert(form_.end(), cids.begin(), cids.end());
  }
  if (form_.empty()) return;
  std::stable_sort(form_.begin(), form_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto last_of_each = std::unique(
      form_.rbegin(), form_.rend(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  const View v(ViewId{round_, participants.begin()->value},
               View::StartIds(last_of_each.base(), form_.end()));

  // MBRSHP spec validation for our local clients: the view must reflect the
  // latest start_change each of them received. If the estimate drifted, run
  // another round instead of delivering a stale notification.
  for (const auto& [p, rec] : clients_) {
    if (!v.members().contains(p) || !fd_.alive(net::node_of(p))) continue;
    const bool ok = rec.change_started &&
                    std::includes(rec.last_sc_set.begin(), rec.last_sc_set.end(),
                                  v.members().begin(), v.members().end()) &&
                    rec.last_cid == v.start_id_of(p);
    if (!ok) {
      ++stats_.obsolete_views_suppressed;
      reconfigure();
      return;
    }
  }

  deliver_view(v);
}

void MembershipServer::deliver_view(const View& v) {
  ++stats_.views_formed;
  emit_phase("view_formed", v.id.epoch);
  last_formed_ = v;
  last_epoch_ = std::max(last_epoch_, v.id.epoch);
  const wire::ViewDelivery full{v};
  const std::size_t full_size = codec::wire_size(full);
  // Wrapped on first use and shared by every client that gets the full form.
  net::Payload full_payload;
  for (auto& [p, rec] : clients_) {
    if (!v.members().contains(p) || !fd_.alive(net::node_of(p))) {
      // This client misses the view: an unacked suffix toward it may be
      // dropped with it from the reliable set, so in-order receipt of the
      // delta chain is no longer certain — next view goes out full.
      rec.last_view_sent.reset();
      continue;
    }
    if (!(rec.last_view_id < v.id)) continue;  // Local Monotonicity guard
    rec.last_view_id = v.id;
    rec.change_started = false;
    // Delta-encode against the last view this client received when that is
    // cheaper; fall back to the full form otherwise (DESIGN.md §13). Clients
    // whose last view sent is one view share its delta and payload.
    const DeltaForm* delta = nullptr;
    if (rec.last_view_sent.has_value() && rec.last_view_sent->id < v.id) {
      const View& base = *rec.last_view_sent;
      auto d = std::ranges::find(deltas_, base, &DeltaForm::base);
      if (d == deltas_.end()) {
        wire::ViewDelta diff = wire::ViewDelta::diff(base, v);
        const std::size_t size = codec::wire_size(diff);
        d = deltas_.insert(d, {base,
                               size < full_size ? net::Payload(std::move(diff))
                                                : net::Payload(),
                               size});
      }
      delta = &*d;
    }
    if (delta != nullptr && delta->payload.has_value()) {
      ++stats_.delta_views_sent;
      stats_.view_bytes_saved += full_size - delta->size;
      send_to(p, delta->payload, delta->size);
    } else {
      ++stats_.full_views_sent;
      if (!full_payload.has_value()) full_payload = net::Payload(full);
      send_to(p, full_payload, full_size);
    }
    rec.last_view_sent = v;
  }
  deltas_.clear();
  VSGC_TRACE("mbrshp", to_string(self_) << " formed " << to_string(v));
}

}  // namespace vsgc::membership
