// Runtime checker for the MBRSHP safety specification (paper Figure 2).
//
// Consumes MbrStartChange / MbrView trace events (what each client process
// actually received from the membership service) and asserts the automaton's
// preconditions:
//   * start_change: cid strictly increasing per process, p ∈ set;
//   * view: id strictly increasing per process (Local Monotonicity),
//     p ∈ v.set (Self Inclusion), v.set ⊆ the latest start_change set,
//     v.startId(p) == the latest start_change cid, and mode == change_started
//     (at least one start_change precedes every view).
//
// Section 8 adaptation: a crashed process keeps its identifier floors across
// recovery (the membership service itself never crashes), so Local
// Monotonicity must hold across crash/recovery boundaries too.
#pragma once

#include <map>
#include <set>

#include "spec/events.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {

class MbrshpChecker : public TraceSink {
 public:
  void on_event(const Event& event) override {
    if (const auto* sc = std::get_if<MbrStartChange>(&event.body)) {
      auto& st = state_[sc->p];
      VSGC_REQUIRE(st.last_cid < sc->cid,
                   "MBRSHP: non-increasing start_change cid at "
                       << to_string(sc->p));
      VSGC_REQUIRE(sc->set.contains(sc->p),
                   "MBRSHP: start_change set excludes target "
                       << to_string(sc->p));
      st.last_cid = sc->cid;
      st.last_set = sc->set;
      st.change_started = true;
      return;
    }
    if (const auto* mv = std::get_if<MbrView>(&event.body)) {
      auto& st = state_[mv->p];
      const View& v = mv->view;
      VSGC_REQUIRE(st.last_view_id < v.id,
                   "MBRSHP: Local Monotonicity violated at "
                       << to_string(mv->p) << ": " << to_string(v.id));
      VSGC_REQUIRE(v.contains(mv->p), "MBRSHP: Self Inclusion violated at "
                                          << to_string(mv->p));
      VSGC_REQUIRE(st.change_started,
                   "MBRSHP: view without preceding start_change at "
                       << to_string(mv->p));
      VSGC_REQUIRE(v.start_id_of(mv->p) == st.last_cid,
                   "MBRSHP: view startId(" << to_string(mv->p)
                                           << ") != latest start_change cid");
      for (ProcessId q : v.members()) {
        VSGC_REQUIRE(st.last_set.contains(q),
                     "MBRSHP: view member " << to_string(q)
                                            << " not in announced set at "
                                            << to_string(mv->p));
      }
      st.last_view_id = v.id;
      st.change_started = false;
      return;
    }
    if (const auto* rec = std::get_if<Recover>(&event.body)) {
      // recover_p() sets mbrshp.mode[p] back to normal; identifier floors
      // persist because the membership service keeps its state.
      state_[rec->p].change_started = false;
      return;
    }
  }

 private:
  struct PerProcess {
    StartChangeId last_cid = StartChangeId::zero();
    ProcessSet last_set;  ///< shares the event's body
    bool change_started = false;
    ViewId last_view_id = ViewId::zero();
  };

  std::map<ProcessId, PerProcess> state_;
};

}  // namespace vsgc::spec
