// Runtime checker for VS_RFIFO : SPEC (paper Figure 5) — Virtual Synchrony.
//
// Extends WvRfifoChecker exactly as VS_RFIFO:SPEC extends WV_RFIFO:SPEC: the
// first process to move from view v to view v' fixes the cut (set_cut); every
// other process making the same transition must deliver precisely that set of
// messages in v before moving. The cut is represented, as in the paper, by
// the per-sender index of the last delivered message.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "spec/wv_rfifo_checker.hpp"

namespace vsgc::spec {

class VsRfifoChecker : public WvRfifoChecker {
 public:
  /// Number of distinct (v, v') transitions whose cut was fixed (for tests).
  std::size_t cuts_fixed() const { return cut_.size(); }

 protected:
  void check_view(const GcsView& e) override {
    const View& old_view = current_view(e.p);
    // Snapshot of what p delivered in the old view, per sender.
    std::map<ProcessId, std::int64_t> delivered;
    for (ProcessId q : old_view.members()) {
      delivered[q] = last_dlvrd_[q][e.p];
    }

    const std::pair<View, View> key{old_view, e.view};
    auto it = cut_.find(key);
    if (it == cut_.end()) {
      // set_cut(v, v', c): the first mover fixes the cut.
      cut_.emplace(key, delivered);
    } else {
      // Every later mover over the same (v, v') edge must match it exactly.
      for (ProcessId q : old_view.members()) {
        const std::int64_t agreed = it->second.count(q) ? it->second.at(q) : 0;
        VSGC_REQUIRE(delivered[q] == agreed,
                     "VS_RFIFO: Virtual Synchrony violated — "
                         << to_string(e.p) << " moving "
                         << to_string(old_view.id) << " -> "
                         << to_string(e.view.id) << " delivered "
                         << delivered[q] << " messages from " << to_string(q)
                         << " but the agreed cut is " << agreed);
      }
    }
    WvRfifoChecker::check_view(e);
  }

 private:
  /// cut[(v, v')] — the agreed per-sender delivery counts for the transition.
  std::map<std::pair<View, View>, std::map<ProcessId, std::int64_t>> cut_;
};

}  // namespace vsgc::spec
