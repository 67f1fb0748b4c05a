// Scripted membership service for deterministic tests and benchmarks.
//
// OracleMembership implements the MBRSHP automaton of Figure 2 directly: the
// test script plays the role of the nondeterministic environment, choosing
// when start_change and view actions fire and with which membership. The
// oracle enforces the spec's preconditions (fresh increasing cids, a
// start_change before every view, startId = latest cid, v.set within the
// announced set), so any test driving it produces only legal MBRSHP traces.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "membership/interface.hpp"
#include "membership/process_set.hpp"
#include "membership/view.hpp"
#include "util/assert.hpp"

namespace vsgc::membership {

class OracleMembership {
 public:
  void attach(ProcessId p, Listener& listener) {
    records_[p].listeners.push_back(&listener);
  }

  /// Issue MBRSHP.start_change_p(cid, set) to every attached process in
  /// `set`, with a fresh per-process cid. Returns the cids issued.
  std::map<ProcessId, StartChangeId> start_change(const ProcessSet& set) {
    std::map<ProcessId, StartChangeId> issued;
    for (ProcessId p : set) {
      auto it = records_.find(p);
      if (it == records_.end()) continue;
      issued[p] = start_change_to(p, set);
    }
    return issued;
  }

  /// Issue a start_change to a single process (partitionable scenarios).
  StartChangeId start_change_to(ProcessId p, const ProcessSet& set) {
    VSGC_REQUIRE(set.contains(p), "start_change set must include the target");
    auto& rec = records_.at(p);
    rec.last_cid = StartChangeId{rec.last_cid.value + 1};
    rec.last_set = set;
    rec.change_started = true;
    for (auto* l : rec.listeners) l->on_start_change(rec.last_cid, set);
    return rec.last_cid;
  }

  /// Form a view over `members` using each member's latest cid and deliver it
  /// to every attached member. Spec preconditions are asserted.
  View deliver_view(const std::set<ProcessId>& members) {
    const View v = make_view(members);
    for (ProcessId p : members) deliver_view_to(p, v);
    return v;
  }

  /// Build (but do not deliver) a view over `members` with the latest cids.
  View make_view(const std::set<ProcessId>& members) {
    std::map<ProcessId, StartChangeId> start_id;
    for (ProcessId p : members) {
      auto it = records_.find(p);
      VSGC_REQUIRE(it != records_.end(),
                   "view member " << to_string(p) << " never attached");
      start_id[p] = it->second.last_cid;
    }
    return View(ViewId{++epoch_, 0}, start_id);
  }

  /// Deliver a previously built view to one process (staggered delivery).
  void deliver_view_to(ProcessId p, const View& v) {
    auto& rec = records_.at(p);
    VSGC_REQUIRE(rec.change_started,
                 "view without preceding start_change at " << to_string(p));
    VSGC_REQUIRE(rec.last_view_id < v.id, "non-monotonic oracle view");
    VSGC_REQUIRE(v.start_id_of(p) == rec.last_cid,
                 "view startId mismatch at " << to_string(p));
    VSGC_REQUIRE(
        std::includes(rec.last_set.begin(), rec.last_set.end(),
                      v.members().begin(), v.members().end()),
        "view members exceed announced start_change set at " << to_string(p));
    rec.change_started = false;
    rec.last_view_id = v.id;
    for (auto* l : rec.listeners) l->on_view(v);
  }

  StartChangeId last_cid(ProcessId p) const { return records_.at(p).last_cid; }

 private:
  struct Record {
    std::vector<Listener*> listeners;
    StartChangeId last_cid = StartChangeId::zero();
    ProcessSet last_set;
    bool change_started = false;
    ViewId last_view_id = ViewId::zero();
  };

  std::map<ProcessId, Record> records_;
  std::uint64_t epoch_ = 0;
};

}  // namespace vsgc::membership
