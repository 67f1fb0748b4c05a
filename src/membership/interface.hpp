// Client-facing membership interface (the MBRSHP automaton's output actions,
// Figure 2): start_change_p(cid, set) and view_p(v).
//
// A GCS end-point consumes this interface; it can be fed by the real
// client-server membership service (membership_client/membership_server), by
// the scripted OracleMembership used in deterministic tests, or by any other
// implementation satisfying the MBRSHP spec.
#pragma once

#include "membership/process_set.hpp"
#include "membership/view.hpp"
#include "util/ids.hpp"

namespace vsgc::membership {

class Listener {
 public:
  virtual ~Listener() = default;

  /// MBRSHP.start_change_p(cid, set): the service is attempting to form a new
  /// view with the members of `set`; `cid` is locally unique and increasing.
  /// `set` is the body the service sent: a listener keeps it by copying the
  /// handle.
  virtual void on_start_change(StartChangeId cid, const ProcessSet& set) = 0;

  /// MBRSHP.view_p(v): the new view. v.start_id maps each member to the cid
  /// of the last start_change it received before this view.
  virtual void on_view(const View& v) = 0;
};

}  // namespace vsgc::membership
