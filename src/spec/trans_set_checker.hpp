// Runtime checker for TRANS_SET : SPEC (paper Figure 6 / Property 4.1).
//
// Immediate checks at every view delivery:
//   * T ⊆ v.set ∩ previous_view.set, and p ∈ T.
//
// The inclusion/exclusion half of Property 4.1 references which view other
// processes move to v' FROM — future knowledge at delivery time (the spec
// models it with a prophecy variable). The checker therefore records every
// transition and validates mutual consistency in finalize(), which tests call
// once the execution quiesces: for any p, q that both delivered v',
//     q ∈ T_p  ⇔  prev_view(q) == prev_view(p),   for q ∈ v'.set ∩ prev_p.set.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "spec/events.hpp"
#include "spec/initial_views.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {

class TransSetChecker : public TraceSink {
 public:
  /// Reads initial views from `initial`, or from a table of its own.
  explicit TransSetChecker(std::shared_ptr<InitialViews> initial = nullptr)
      : initial_(initial ? std::move(initial)
                         : std::make_shared<InitialViews>()) {}

  void on_event(const Event& event) override {
    if (const auto* v = std::get_if<GcsView>(&event.body)) {
      const View& prev = current_view(v->p);
      VSGC_REQUIRE(v->transitional.contains(v->p),
                   "TRANS_SET: transitional set at " << to_string(v->p)
                                                     << " excludes itself");
      for (ProcessId q : v->transitional) {
        VSGC_REQUIRE(v->view.contains(q) && prev.contains(q),
                     "TRANS_SET: " << to_string(q)
                                   << " outside v.set ∩ prev.set at "
                                   << to_string(v->p));
      }
      deliveries_.push_back(
          Delivery{v->p, prev, v->view, v->transitional, event.at});
      current_view_.insert_or_assign(v->p, v->view);
      return;
    }
    if (const auto* r = std::get_if<Recover>(&event.body)) {
      current_view_.insert_or_assign(r->p, initial_->of(r->p));
      return;
    }
  }

  /// Cross-process half of Property 4.1; call once the execution is over.
  void finalize() const { finalize_after(std::numeric_limits<sim::Time>::min()); }

  /// Window-aware finalize (eventual-safety mode, DESIGN.md §12): view
  /// transitions recorded at or before `cutoff` straddle a tolerated
  /// corruption-recovery span and are exempt from the cross-process
  /// consistency requirement; everything later must be exact. finalize() is
  /// the cutoff = -inf special case.
  void finalize_after(sim::Time cutoff) const {
    // prev[(q, v')] = the view q moved to v' from (unique per q, v').
    std::map<std::pair<ProcessId, View>, View> prev;
    for (const Delivery& d : deliveries_) {
      prev.emplace(std::make_pair(d.p, d.view), d.previous);
    }
    for (const Delivery& d : deliveries_) {
      if (d.at <= cutoff) continue;
      for (ProcessId q : d.view.members()) {
        if (!d.previous.contains(q)) continue;
        auto it = prev.find(std::make_pair(q, d.view));
        if (it == prev.end()) continue;  // q never delivered v'
        const bool moved_together = it->second == d.previous;
        VSGC_REQUIRE(
            d.transitional.contains(q) == moved_together,
            "TRANS_SET: Property 4.1 violated — at "
                << to_string(d.p) << " moving to " << to_string(d.view.id)
                << ", " << to_string(q)
                << (moved_together
                        ? " moved from the same view but is not in T"
                        : " moved from a different view but is in T"));
      }
    }
  }

  std::size_t transitions_recorded() const { return deliveries_.size(); }

 private:
  struct Delivery {
    ProcessId p;
    View previous;
    View view;
    ProcessSet transitional;  ///< shares the event's body
    sim::Time at = 0;
  };

  const View& current_view(ProcessId p) {
    auto it = current_view_.find(p);
    if (it == current_view_.end()) {
      it = current_view_.emplace(p, initial_->of(p)).first;
    }
    return it->second;
  }

  std::shared_ptr<InitialViews> initial_;
  std::map<ProcessId, View> current_view_;
  std::vector<Delivery> deliveries_;
};

}  // namespace vsgc::spec
