// Runtime checker for VS_RFIFO : SPEC (paper Figure 5) — Virtual Synchrony.
//
// Checks only what VS_RFIFO:SPEC adds to WV_RFIFO:SPEC: the first process to
// move from view v to view v' fixes the cut (set_cut); every other process
// making the same transition must deliver precisely that set of messages in
// v before moving. The cut is represented, as in the paper, by the
// per-sender count of messages delivered in v. The counts are read off the
// events, so this checker must see only those WvRfifoChecker accepted
// (AllCheckers sees to that, DESIGN.md §12.2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "membership/view.hpp"
#include "spec/events.hpp"
#include "spec/initial_views.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {

class VsRfifoChecker : public TraceSink {
 public:
  /// Reads initial views from `initial`, or from a table of its own.
  explicit VsRfifoChecker(std::shared_ptr<InitialViews> initial = nullptr)
      : initial_(initial ? std::move(initial)
                         : std::make_shared<InitialViews>()) {}

  void on_event(const Event& event) override {
    if (const auto* d = std::get_if<GcsDeliver>(&event.body)) {
      ++delivered_[d->p][d->q];
    } else if (const auto* v = std::get_if<GcsView>(&event.body)) {
      check_view(*v);
      enter(v->p, v->view);
    } else if (const auto* r = std::get_if<Recover>(&event.body)) {
      enter(r->p, initial_->of(r->p));
    }
  }

  /// Number of distinct (v, v') transitions whose cut was fixed (for tests).
  std::size_t cuts_fixed() const { return cut_.size(); }

 private:
  void check_view(const GcsView& e) {
    auto cv = current_view_.find(e.p);
    const View old_view =
        cv == current_view_.end() ? initial_->of(e.p) : cv->second;
    auto& delivered = delivered_[e.p];
    const std::pair<View, View> key{old_view, e.view};
    auto it = cut_.find(key);
    if (it == cut_.end()) {
      // set_cut(v, v', c): the first mover fixes the cut.
      auto& cut = cut_[key];
      for (ProcessId q : old_view.members()) cut[q] = delivered[q];
      return;
    }
    // Every later mover over the same (v, v') edge must match it exactly.
    for (const auto& [q, agreed] : it->second) {
      VSGC_REQUIRE(delivered[q] == agreed,
                   "VS_RFIFO: Virtual Synchrony violated — "
                       << to_string(e.p) << " moving "
                       << to_string(old_view.id) << " -> "
                       << to_string(e.view.id) << " delivered "
                       << delivered[q] << " messages from " << to_string(q)
                       << " but the agreed cut is " << agreed);
    }
  }

  /// p's current view becomes v, in which it has delivered nothing yet.
  void enter(ProcessId p, const View& v) {
    current_view_.insert_or_assign(p, v);
    for (auto& [q, n] : delivered_[p]) n = 0;
  }

  std::shared_ptr<InitialViews> initial_;
  std::map<ProcessId, View> current_view_;
  /// delivered[p][q]: messages from q that p delivered in its current view.
  std::map<ProcessId, std::map<ProcessId, std::int64_t>> delivered_;
  /// cut[(v, v')] — the agreed per-sender delivery counts for the transition.
  std::map<std::pair<View, View>, std::map<ProcessId, std::int64_t>> cut_;
};

}  // namespace vsgc::spec
