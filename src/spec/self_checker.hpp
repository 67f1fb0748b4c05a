// Runtime checker for SELF : SPEC (paper Figure 7) — Self Delivery.
//
// Checks only what SELF:SPEC adds to WV_RFIFO:SPEC: an end-point may not
// deliver a new view before it has delivered every message its own
// application sent in the current view. This holds only when clients satisfy
// CLIENT:SPEC (Figure 12) — tests pair this checker with ClientChecker and a
// blocking client. Like VsRfifoChecker, it counts the events it sees, so it
// must see only those WvRfifoChecker accepted.
#pragma once

#include <cstdint>
#include <map>

#include "membership/view.hpp"
#include "spec/events.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {

class SelfChecker : public TraceSink {
 public:
  void on_event(const Event& event) override {
    if (const auto* s = std::get_if<GcsSend>(&event.body)) {
      ++own_[s->p].sent;
    } else if (const auto* d = std::get_if<GcsDeliver>(&event.body)) {
      if (d->p == d->q) ++own_[d->p].delivered;
    } else if (const auto* v = std::get_if<GcsView>(&event.body)) {
      const Own& own = own_[v->p];
      VSGC_REQUIRE(own.delivered == own.sent,
                   "SELF: Self Delivery violated at "
                       << to_string(v->p) << " moving to "
                       << to_string(v->view.id) << ": delivered "
                       << own.delivered << " of " << own.sent
                       << " own messages sent in " << to_string(own.view));
      own_[v->p] = Own{v->view.id};
    } else if (const auto* r = std::get_if<Recover>(&event.body)) {
      own_[r->p] = Own{};
    }
  }

 private:
  /// A process's current view id and its own messages sent and delivered in
  /// that view.
  struct Own {
    ViewId view = ViewId::zero();
    std::int64_t sent = 0;
    std::int64_t delivered = 0;
  };

  std::map<ProcessId, Own> own_;
};

}  // namespace vsgc::spec
