#include "membership/membership_client.hpp"

#include "util/logging.hpp"

namespace vsgc::membership {

bool MembershipClient::handle(net::NodeId from, const std::any& payload) {
  if (!net::is_server_node(from)) return false;

  if (const auto* sc = std::any_cast<wire::StartChange>(&payload)) {
    if (!running_) return true;
    // Local uniqueness / monotonicity of cids (guaranteed by the server; the
    // guard protects against stale duplicates after re-attachment).
    if (!(last_cid_ < sc->cid)) {
      emit_notify_drop(sc->cid.value);
      return true;
    }
    last_cid_ = sc->cid;
    VSGC_TRACE("mbr-client", to_string(self_) << " start_change "
                                              << to_string(sc->cid));
    for (Listener* l : listeners_) l->on_start_change(sc->cid, sc->set);
    return true;
  }

  if (const auto* vd = std::any_cast<wire::ViewDelivery>(&payload)) {
    if (running_) accept_view(vd->view, "view");
    return true;
  }

  if (const auto* dv = std::any_cast<wire::ViewDelta>(&payload)) {
    if (!running_) return true;
    // Delta chain integrity (DESIGN.md §13): the delta must apply to exactly
    // the view we last accepted. A mismatch means the chain broke — a view
    // notification was lost with a dropped stream suffix, or the delta is
    // forged/stale. Drop it and resync: the incarnation bump makes the
    // server discard its delta base and send the next view in full.
    std::optional<View> v;
    if (last_view_id_ == dv->base) v = dv->apply(last_view_);
    if (!v.has_value()) {
      emit_notify_drop(dv->id.epoch);
      resync();
      return true;
    }
    accept_view(*v, "view(delta)");
    return true;
  }

  if (std::any_cast<wire::Heartbeat>(&payload) != nullptr) return true;
  return false;
}

void MembershipClient::accept_view(const View& v, const char* kind) {
  // Local Monotonicity / Self Inclusion / latest-start_change guards: a
  // failed guard suppresses the notification (and marks the drop when span
  // instrumentation is on).
  if (!(last_view_id_ < v.id) || !v.contains(self_) ||
      v.start_id_of(self_) != last_cid_) {
    emit_notify_drop(v.id.epoch);
    return;
  }
  last_view_id_ = v.id;
  last_notified_id_ = v.id;
  last_view_ = v;
  VSGC_TRACE("mbr-client",
             to_string(self_) << " " << kind << " " << to_string(v));
  for (Listener* l : listeners_) l->on_view(v);
}

}  // namespace vsgc::membership
